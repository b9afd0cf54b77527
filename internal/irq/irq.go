// Package irq models the legacy interrupt plumbing the paper wants to
// eliminate (§1, §2 "No More Interrupts"): an interrupt descriptor table
// (IDT), vectored delivery into a hard-IRQ context on a victim hardware
// thread, inter-processor interrupts (IPIs), and the associated fixed costs.
//
// Delivery timeline for a device interrupt (the §1 wake-up story):
//
//	device raises vector
//	→ controller latency
//	→ victim thread enters IRQ context (IRQEntry cycles stolen from it;
//	  an idle/halted core is woken first)
//	→ registered handler runs (its cost is declared by the handler)
//	→ IRQExit
//
// On the nocs personality devices raise no vectors at all: they write
// memory and the monitor engine does the rest. The ablation experiment A2
// turns off the monitor's view of device writes (DMAVisible) and shows the
// platform falling back to this controller.
package irq

import (
	"fmt"

	"nocs/internal/hwthread"
	"nocs/internal/sim"
	"nocs/internal/trace"
)

// Vector is an interrupt vector number (index into the IDT).
type Vector int

// Handler services one interrupt vector. It runs in simulated IRQ context
// on the victim thread and returns its service cost in cycles.
type Handler func(v Vector, at sim.Cycles) sim.Cycles

// CoreTarget abstracts the slice of the core model the controller needs:
// stealing cycles from a running thread and waking a halted one.
type CoreTarget interface {
	// InjectDelay steals d cycles from the victim runnable thread.
	InjectDelay(p hwthread.PTID, d sim.Cycles)
	// WakeFromHalt resumes a hlt-parked thread.
	WakeFromHalt(p hwthread.PTID)
}

// Costs are the fixed legacy-interrupt costs (values per DESIGN.md).
type Costs struct {
	// Controller is the APIC-ish delivery latency from device assertion to
	// CPU notification.
	Controller sim.Cycles
	// Entry and Exit bracket the hard-IRQ context.
	Entry sim.Cycles
	Exit  sim.Cycles
	// IPISend and IPIReceive price cross-core kicks.
	IPISend    sim.Cycles
	IPIReceive sim.Cycles
}

// defaultCosts is every controller's cost table.
var defaultCosts = Costs{Controller: 100, Entry: 600, Exit: 300, IPISend: 400, IPIReceive: 700}

type idtEntry struct {
	handler Handler
	core    CoreTarget
	victim  hwthread.PTID
}

// victimKey identifies one interrupt-service context (a hardware thread on
// a core): handler executions on the same victim serialize, exactly as hard
// IRQ contexts do on real cores.
type victimKey struct {
	core   CoreTarget
	victim hwthread.PTID
}

// vecTrace is the lazily-created per-vector trace track.
type vecTrace struct {
	track trace.TrackID
	name  string
}

// delivery is one raised-but-not-yet-serviced interrupt: the event body
// between Raise and handler execution. A delivery blocked by a busy IRQ
// context re-queues itself at the context's free time. Keeping deliveries as
// tracked structs (not closures) is what makes in-flight interrupts
// checkpointable (DESIGN.md §13); the trace flow is live-run-only state and
// is dropped across a restore (traces re-base).
type delivery struct {
	c      *Controller
	h      sim.Handle
	v      Vector
	e      idtEntry
	key    victimKey
	pend   bool // re-queued behind a busy IRQ context
	traced bool
	flow   trace.FlowID
	vt     vecTrace
}

// OnEvent delivers the interrupt, or re-queues if the IRQ context is busy.
func (d *delivery) OnEvent() {
	c := d.c
	if bu := c.busyUntil[d.key]; bu > c.eng.Now() {
		// A previous handler still occupies the IRQ context.
		d.pend = true
		d.h = c.eng.AtCallback(bu, deliveryName(d.v, true), d)
		return
	}
	c.unlink(d)
	// Wake the core if it is idle, then steal entry+handler+exit from
	// whatever was running.
	d.e.core.WakeFromHalt(d.e.victim)
	start := c.eng.Now()
	cost := c.costs.Entry + d.e.handler(d.v, start) + c.costs.Exit
	c.busyUntil[d.key] = start + cost
	d.e.core.InjectDelay(d.e.victim, cost)
	c.delivered++
	if d.traced && c.tr != nil {
		c.tr.Complete(d.vt.track, d.vt.name, int64(start), int64(cost))
		c.tr.FlowEnd(d.vt.track, d.vt.name, int64(start), d.flow)
	}
}

func (c *Controller) unlink(d *delivery) {
	for i, q := range c.pending {
		if q == d {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return
		}
	}
}

// Controller is the machine's legacy interrupt controller.
type Controller struct {
	eng   *sim.Shard
	costs Costs
	idt   map[Vector]idtEntry

	busyUntil map[victimKey]sim.Cycles

	// pending tracks raised-but-undelivered interrupts for checkpointing.
	pending []*delivery

	// Tracing (nil tr = off): each vector gets its own track; a raise emits
	// an instant plus a flow arrow to the delivery span (entry+handler+exit).
	tr        *trace.Tracer
	trProcess string
	trVecs    map[Vector]vecTrace
	trIPI     trace.TrackID

	raised    uint64
	delivered uint64
	spurious  uint64
	ipis      uint64
}

// NewController builds a controller on the shared engine.
func NewController(eng *sim.Shard) *Controller {
	return &Controller{
		eng: eng, costs: defaultCosts,
		idt:       make(map[Vector]idtEntry),
		busyUntil: make(map[victimKey]sim.Cycles),
	}
}

// Costs returns the effective cost table.
func (c *Controller) Costs() Costs { return c.costs }

// SetTracer attaches a tracer; process names the track group. Vector tracks
// are created on first raise, in raise order (deterministic per run).
func (c *Controller) SetTracer(tr *trace.Tracer, process string) {
	c.tr = tr
	c.trProcess = process
	if tr != nil {
		c.trVecs = make(map[Vector]vecTrace)
	}
}

// vecTrack returns (creating on demand) vector v's trace track.
func (c *Controller) vecTrack(v Vector) vecTrace {
	vt, ok := c.trVecs[v]
	if !ok {
		name := fmt.Sprintf("irq%d", v)
		vt = vecTrace{track: c.tr.NewTrack(c.trProcess, name), name: name}
		c.trVecs[v] = vt
	}
	return vt
}

// Register installs a handler for vector v, delivered to the victim thread
// on the given core. Re-registering replaces the entry (drivers do this on
// reconfiguration).
func (c *Controller) Register(v Vector, core CoreTarget, victim hwthread.PTID, h Handler) error {
	if h == nil || core == nil {
		return fmt.Errorf("irq: nil handler or core for vector %d", v)
	}
	c.idt[v] = idtEntry{handler: h, core: core, victim: victim}
	return nil
}

// Raise asserts vector v at the current time. Unhandled vectors are counted
// as spurious and dropped (real hardware logs and ignores them too).
// Handler executions on the same victim thread serialize: an interrupt
// arriving while a previous handler still runs is held pending until the
// IRQ context frees up — the source of interrupt-path queueing under load.
// It returns the earliest time the handler body can begin, or 0 for
// spurious interrupts.
func (c *Controller) Raise(v Vector) sim.Cycles {
	c.raised++
	e, ok := c.idt[v]
	if !ok {
		c.spurious++
		return 0
	}
	key := victimKey{core: e.core, victim: e.victim}
	var flow trace.FlowID
	var vt vecTrace
	if c.tr != nil {
		vt = c.vecTrack(v)
		flow = c.tr.NewFlow()
		c.tr.Instant(vt.track, "raise", int64(c.eng.Now()))
		c.tr.FlowStart(vt.track, vt.name, int64(c.eng.Now()), flow)
	}
	d := &delivery{c: c, v: v, e: e, key: key, traced: c.tr != nil, flow: flow, vt: vt}
	d.h = c.eng.AfterCallback(c.costs.Controller, deliveryName(v, false), d)
	c.pending = append(c.pending, d)
	earliest := c.eng.Now() + c.costs.Controller
	if bu := c.busyUntil[key]; bu > earliest {
		earliest = bu
	}
	return earliest + c.costs.Entry
}

// SendIPI models one core kicking another (the §1 remote-wakeup path):
// the sender pays IPISend immediately; after the wire latency the receiver
// executes fn in IRQ context, paying IPIReceive plus fn's cost.
func (c *Controller) SendIPI(sender CoreTarget, senderThread hwthread.PTID,
	receiver CoreTarget, receiverThread hwthread.PTID, fn func() sim.Cycles) {
	c.ipis++
	if c.tr != nil && c.trIPI == 0 {
		c.trIPI = c.tr.NewTrack(c.trProcess, "ipi")
	}
	if c.tr != nil {
		c.tr.Instant(c.trIPI, "ipi-send", int64(c.eng.Now()))
	}
	sender.InjectDelay(senderThread, c.costs.IPISend)
	c.eng.After(c.costs.IPISend, "ipi", func() {
		receiver.WakeFromHalt(receiverThread)
		cost := c.costs.IPIReceive
		if fn != nil {
			cost += fn()
		}
		receiver.InjectDelay(receiverThread, cost)
		if c.tr != nil {
			// An instant, not a span: concurrent IPIs to one receiver may
			// overlap, and overlap would violate the per-track nesting
			// invariant CheckNesting enforces.
			c.tr.Instant(c.trIPI, "ipi-receive", int64(c.eng.Now()))
		}
	})
}

// Stats returns (raised, delivered, spurious, ipis).
func (c *Controller) Stats() (raised, delivered, spurious, ipis uint64) {
	return c.raised, c.delivered, c.spurious, c.ipis
}
