// Package core implements the paper's proposed CPU core: a few SMT pipeline
// slots multiplexing many software-controlled hardware threads (ptids), with
// the §3.1 instructions (monitor/mwait, start/stop, rpull/rpush, invtid),
// exception-descriptor faults, and a thread-state storage hierarchy — plus a
// complete *legacy mode* (in-thread syscall privilege switches, VM-exits,
// IRQ-context interrupts) so conventional kernels can be modeled on the same
// hardware for the baselines.
//
// Execution is event-driven over virtual time: each runnable ptid has its
// next issue queued in the core's ready queue, ordered by (issue cycle,
// reserved sequence number), and only the queue's head is in the engine's
// event heap (ready.go). Once dispatched, a ptid runs straight-line
// instructions in a batched tight loop until the next scheduling boundary —
// a blocking instruction, or the earliest queued event, the engine's or the
// core's own (see run for the determinism argument). When its batch yields,
// the core runs the next queued thread inline for as long as that thread's
// issue is the event the engine would dispatch next. Instruction latencies
// are scaled by the pipeline's processor-sharing model; loads and stores
// charge the cache hierarchy; mwait parks the ptid in the machine's monitor
// engine.
package core

import (
	"fmt"
	"strconv"

	"nocs/internal/faultinject"
	"nocs/internal/hwthread"
	"nocs/internal/isa"
	"nocs/internal/mem"
	"nocs/internal/monitor"
	"nocs/internal/pipeline"
	"nocs/internal/sim"
	"nocs/internal/statestore"
	"nocs/internal/trace"
)

// CostConfig holds the architectural transition costs. Every core charges
// defaultCosts, which follow DESIGN.md's calibration table (each value is
// tied to a paper claim or citation there).
type CostConfig struct {
	// SyscallEntry/SyscallExit: same-thread privilege mode switch, each way
	// (§1/§2 "hundreds of cycles", FlexSC).
	SyscallEntry sim.Cycles
	SyscallExit  sim.Cycles
	// VMExit/VMEntry: in-thread root-mode transition (§2, Agesen et al.).
	VMExit  sim.Cycles
	VMEntry sim.Cycles
	// IRQEntry/IRQExit: jump into/out of a hard IRQ context (§1).
	IRQEntry sim.Cycles
	IRQExit  sim.Cycles
	// IPISend/IPIReceive: inter-processor interrupt costs (§1).
	IPISend    sim.Cycles
	IPIReceive sim.Cycles
	// ContextSwitch: software thread switch (registers + kernel scheduler).
	ContextSwitch sim.Cycles
	// FPSaveRestore: extra cost to save+restore the 784-byte vector state
	// when a legacy kernel that uses FP must preserve user FP registers.
	FPSaveRestore sim.Cycles
	// ThreadOp: cost of executing start/stop/rpull/rpush/invtid themselves —
	// the paper requires these to be nanosecond-scale.
	ThreadOp sim.Cycles
}

// defaultCosts are the transition costs every core charges.
var defaultCosts = CostConfig{
	SyscallEntry:  150,
	SyscallExit:   150,
	VMExit:        1200,
	VMEntry:       800,
	IRQEntry:      600,
	IRQExit:       300,
	IPISend:       400,
	IPIReceive:    700,
	ContextSwitch: 1200,
	FPSaveRestore: 300,
	ThreadOp:      4,
}

// Config describes one core.
type Config struct {
	// ID is the core number within the machine.
	ID int
	// Threads is the number of hardware thread contexts (ptids). The paper
	// argues for 10s–1000s; default 64.
	Threads int
	// Slots is the SMT issue width shared by runnable ptids (default 2).
	Slots int
	// Tracer, when non-nil, records per-ptid state spans, exec batch spans,
	// syscall/VM-exit spans, and pipeline occupancy counters. It must be
	// written only from this core's shard. TraceName prefixes this core's
	// track group (default "core<ID>").
	Tracer    *trace.Tracer
	TraceName string
}

// NativeFunc is a simulator pseudo-instruction body: it runs Go logic on
// behalf of the ptid executing a NATIVE instruction and returns the cycle
// cost to charge. It may manipulate threads, memory, and devices freely.
type NativeFunc func(c *Core, t *hwthread.Context) sim.Cycles

// Core is one simulated CPU core.
type Core struct {
	id int
	// sh is the shard this core lives on (DESIGN.md §12); eng caches the
	// shard's engine so the batched execution hot path pays no extra
	// indirection per horizon check.
	sh      *sim.Shard
	eng     *sim.Engine
	mem     *mem.Memory
	hier    *mem.Hierarchy
	mon     *monitor.Engine
	threads *hwthread.Manager
	store   *statestore.Store
	pipe    *pipeline.Pipeline
	costs   CostConfig

	natives map[string]NativeFunc
	waiters []*waiter // one per ptid

	// rq holds every pending issue, inQ[p] whether ptid p has one, and exec
	// is the engine event body of the armed entries (ready.go). dispatching
	// is set while run executes this core's threads; the queue's head is
	// armed whenever it is clear.
	rq          readyQueue
	inQ         []bool
	exec        execEvent
	dispatching bool

	// Per-ptid predecode cache: decs[p] is decProgs[p].Decoded(), warmed at
	// BindProgram and kept coherent by pointer compare (see decodedFor).
	decProgs []*isa.Program
	decs     [][]isa.Decoded

	// Legacy-mode hooks. When LegacySyscall is non-nil, SYSCALL performs an
	// in-thread mode switch and runs the hook; otherwise SYSCALL writes an
	// ExcSyscall descriptor and disables the thread (nocs personality).
	LegacySyscall NativeFunc
	// LegacyVMExit: same split for VMCALL and guest privileged instructions.
	LegacyVMExit NativeFunc
	// KernelUsesFP charges FPSaveRestore on every legacy syscall/IRQ entry
	// (experiment F5: a legacy kernel that links FP/vector code must
	// save/restore user vector state).
	KernelUsesFP bool

	// OnWake, if set, observes monitor wakeups (ptid, watched addr, time).
	OnWake func(p hwthread.PTID, addr int64, at sim.Cycles)
	// OnExec, if set, observes every issued instruction (tracing; see
	// TraceBuffer). Faulting instructions are traced before they fault.
	OnExec func(p hwthread.PTID, pc int64, in isa.Instr, at sim.Cycles)

	guests map[hwthread.PTID]bool
	halted map[hwthread.PTID]bool // parked by legacy HLT, not monitor

	// Tracing (nil tr = off; one pointer compare on the hot paths). Each
	// ptid's track carries a span per runnable/waiting period, a span per
	// exec batch, and an instant (with cause) per transition to disabled;
	// trOpen tracks whether a state span is currently open on each ptid's
	// track. batchAt/batchRetired mark where the running batch began.
	tr           *trace.Tracer
	trName       string
	trOpen       []bool
	batchAt      sim.Cycles
	batchRetired uint64

	// inj is the machine's fault injector (nil = off); kernel services and
	// the state store reach it through the core.
	inj *faultinject.Injector

	fatal error
	// fatalPTID/fatalFault keep the structured form of the first fatal fault
	// so checkpoints (and state-based harnesses) can reproduce it exactly.
	fatalPTID  hwthread.PTID
	fatalFault *hwthread.Fault
	retired    uint64
	starts     uint64
}

// waiter adapts one ptid to the monitor engine.
type waiter struct {
	c *Core
	p hwthread.PTID
}

func (w *waiter) MonitorWake(addr, val int64, src mem.WriteSource) {
	w.c.wake(w.p, addr)
}

// New builds a core attached to its shard's event queue and the shard-local
// memory and monitor. Single-shard machines pass the machine's only shard;
// a bare engine can be adapted with sim.SoloShard.
func New(cfg Config, sh *sim.Shard, m *mem.Memory, mon *monitor.Engine) *Core {
	if cfg.Threads <= 0 {
		cfg.Threads = 64
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 2
	}
	c := &Core{
		id:      cfg.ID,
		sh:      sh,
		eng:     sh.Engine,
		mem:     m,
		hier:    mem.NewHierarchy(m, mem.HierarchyConfig{}),
		mon:     mon,
		threads: hwthread.NewManager(m, cfg.Threads),
		store:   statestore.New(statestore.Config{}),
		pipe:    pipeline.New(cfg.Slots),
		costs:   defaultCosts,
		natives: make(map[string]NativeFunc),
		guests:  make(map[hwthread.PTID]bool),
		halted:  make(map[hwthread.PTID]bool),
	}
	if cfg.Tracer != nil {
		c.tr = cfg.Tracer
		c.trName = cfg.TraceName
		if c.trName == "" {
			c.trName = "core" + strconv.Itoa(cfg.ID)
		}
		c.trOpen = make([]bool, cfg.Threads)
		c.pipe.SetTracer(cfg.Tracer, func() int64 { return int64(c.eng.Now()) }, c.trName)
	}
	c.exec.c = c
	c.waiters = make([]*waiter, cfg.Threads)
	c.inQ = make([]bool, cfg.Threads)
	c.decProgs = make([]*isa.Program, cfg.Threads)
	c.decs = make([][]isa.Decoded, cfg.Threads)
	for i := range c.waiters {
		c.waiters[i] = &waiter{c: c, p: hwthread.PTID(i)}
	}
	for i := 0; i < cfg.Threads; i++ {
		// All contexts start with the base state footprint.
		if err := c.store.Register(i, isa.BaseStateBytes); err != nil {
			panic(err) // fresh ids cannot collide
		}
	}
	return c
}

// Accessors.

// Shard returns the scheduler shard this core lives on. All of the core's
// events run on this shard; cross-shard interactions go through Shard.Write
// (or machine.RemoteWrite).
func (c *Core) Shard() *sim.Shard { return c.sh }

// Now returns current simulated time.
func (c *Core) Now() sim.Cycles { return c.eng.Now() }

// Mem returns physical memory.
func (c *Core) Mem() *mem.Memory { return c.mem }

// Hierarchy returns the core's cache stack.
func (c *Core) Hierarchy() *mem.Hierarchy { return c.hier }

// Monitor returns the machine's monitor engine.
func (c *Core) Monitor() *monitor.Engine { return c.mon }

// Threads returns the hardware thread manager.
func (c *Core) Threads() *hwthread.Manager { return c.threads }

// StateStore returns the thread-state storage hierarchy.
func (c *Core) StateStore() *statestore.Store { return c.store }

// SetFaultInjector arms fault injection on the core and its state store
// (machine wiring; a nil injector disarms).
func (c *Core) SetFaultInjector(inj *faultinject.Injector) {
	c.inj = inj
	c.store.SetFaultInjector(inj)
}

// FaultInjector returns the machine's fault injector (nil when faults are
// off) so services built on the core can poll it.
func (c *Core) FaultInjector() *faultinject.Injector { return c.inj }

// Pipeline returns the SMT issue model.
func (c *Core) Pipeline() *pipeline.Pipeline { return c.pipe }

// Costs returns the effective cost configuration.
func (c *Core) Costs() CostConfig { return c.costs }

// Fatal returns the unrecoverable fault, if any (nil while healthy).
func (c *Core) Fatal() error { return c.fatal }

// Retired returns the total instructions retired on this core.
func (c *Core) Retired() uint64 { return c.retired }

// Starts returns the number of hardware-thread starts (incl. wakeups).
func (c *Core) Starts() uint64 { return c.starts }

// RegisterNative installs a native handler invoked by `native name`.
func (c *Core) RegisterNative(name string, fn NativeFunc) {
	if _, dup := c.natives[name]; dup {
		panic(fmt.Sprintf("core: native %q registered twice", name))
	}
	c.natives[name] = fn
}

// MarkGuest flags a ptid as running guest (VM) code: its privileged
// instructions become VM-exits rather than plain privilege faults.
func (c *Core) MarkGuest(p hwthread.PTID, guest bool) {
	if guest {
		c.guests[p] = true
	} else {
		delete(c.guests, p)
	}
}

// IsGuest reports the guest flag.
func (c *Core) IsGuest(p hwthread.PTID) bool { return c.guests[p] }

// BindProgram attaches a program to a ptid and points its PC at entry.
// The thread remains disabled until started.
func (c *Core) BindProgram(p hwthread.PTID, prog *isa.Program, entry string) error {
	t := c.threads.Context(p)
	if t == nil {
		return fmt.Errorf("core %d: no ptid %d", c.id, p)
	}
	pc, err := prog.Entry(entry)
	if err != nil {
		return err
	}
	t.Prog = prog
	t.Regs.PC = pc
	// Warm the predecode cache: labels, operand kinds, and cost classes are
	// resolved once per (Program, entry) here instead of per retirement.
	c.decProgs[p] = prog
	c.decs[p] = prog.Decoded()
	return nil
}

// BootStart enables a ptid directly (firmware/boot path, no TDT check) and
// schedules its first instruction after the tier-dependent start latency.
func (c *Core) BootStart(p hwthread.PTID) error {
	t := c.threads.Context(p)
	if t == nil {
		return fmt.Errorf("core %d: no ptid %d", c.id, p)
	}
	if t.Prog == nil {
		return fmt.Errorf("core %d: ptid %d has no program", c.id, p)
	}
	if t.State != hwthread.Disabled {
		return nil
	}
	t.State = hwthread.Runnable
	t.Starts++
	c.resume(t, "boot")
	return nil
}

// Tracing helpers. Callers on hot paths guard with `c.tr != nil` so that a
// disabled tracer costs a single pointer compare.

// ptidTrack lazily registers and returns t's trace track. Tracks appear in
// first-transition order, which is deterministic for a fixed seed.
func (c *Core) ptidTrack(t *hwthread.Context) trace.TrackID {
	if t.Track == 0 {
		t.Track = int32(c.tr.NewTrack(c.trName, "ptid"+strconv.Itoa(int(t.PTID))))
	}
	return trace.TrackID(t.Track)
}

// traceStateBegin opens a state span ("runnable"/"waiting") on t's track;
// cause labels why the transition happened.
func (c *Core) traceStateBegin(t *hwthread.Context, state, cause string) {
	tk := c.ptidTrack(t)
	at := int64(c.eng.Now())
	if c.trOpen[t.PTID] {
		c.tr.End(tk, at) // defensive: never let spans partially overlap
	}
	c.tr.BeginArg(tk, state, cause, at)
	c.trOpen[t.PTID] = true
}

// traceStateEnd closes the open state span on t's track, if any.
func (c *Core) traceStateEnd(t *hwthread.Context) {
	if !c.trOpen[t.PTID] {
		return
	}
	c.tr.End(trace.TrackID(t.Track), int64(c.eng.Now()))
	c.trOpen[t.PTID] = false
}

// traceInstant emits a labeled instant on t's track.
func (c *Core) traceInstant(t *hwthread.Context, name, arg string) {
	c.tr.InstantArg(c.ptidTrack(t), name, arg, int64(c.eng.Now()))
}

// resume puts a newly-runnable thread on the pipeline and schedules its
// first instruction after its state-start latency. cause labels the
// transition in traces ("boot", "start", "wake", "irq-wake").
func (c *Core) resume(t *hwthread.Context, cause string) {
	cost, err := c.store.Start(int(t.PTID), c.eng.Now())
	if err != nil {
		panic(err) // registered at construction; cannot be missing
	}
	c.starts++
	t.LastStarted = c.eng.Now()
	if c.tr != nil {
		c.traceStateBegin(t, "runnable", cause)
	}
	c.pipe.Add(int(t.PTID), t.Weight())
	c.scheduleExec(t, cost)
}

// suspend removes a thread from the pipeline and cancels its next issue.
func (c *Core) suspend(t *hwthread.Context) {
	if c.tr != nil {
		c.traceStateEnd(t)
	}
	c.pipe.Remove(int(t.PTID))
	c.cancelExec(t.PTID)
}

// wake handles a monitor wakeup: waiting → runnable. It is also invoked for
// immediate completions (a write landed between monitor and mwait, so mwait
// never blocked): the thread is then still runnable and only the wakeup is
// recorded.
func (c *Core) wake(p hwthread.PTID, addr int64) {
	t := c.threads.Context(p)
	if t == nil {
		return
	}
	if t.State != hwthread.Waiting {
		t.Wakeups++
		if c.tr != nil {
			// Terminate the monitor's wake flow even when the thread never
			// blocked (immediate completion): the arrow still shows causality.
			c.tr.FlowEnd(c.ptidTrack(t), "wake", int64(c.eng.Now()), c.tr.TakeFlow())
			c.traceInstant(t, "wake", "already-runnable")
		}
		if c.OnWake != nil {
			c.OnWake(p, addr, c.eng.Now())
		}
		return
	}
	t.State = hwthread.Runnable
	t.Wakeups++
	if c.tr != nil {
		c.traceStateEnd(t) // close the "waiting" span
		c.tr.FlowEnd(c.ptidTrack(t), "wake", int64(c.eng.Now()), c.tr.TakeFlow())
	}
	c.store.Prefetch(int(p), c.eng.Now())
	if c.OnWake != nil {
		c.OnWake(p, addr, c.eng.Now())
	}
	c.resume(t, "wake")
}

// InjectDelay pushes a runnable thread's next instruction back by d cycles —
// used by the legacy IRQ path to model handler time stolen from the
// interrupted thread.
func (c *Core) InjectDelay(p hwthread.PTID, d sim.Cycles) {
	t := c.threads.Context(p)
	if t == nil || t.State != hwthread.Runnable {
		return
	}
	c.scheduleExec(t, d)
}

// SetFatal records an unrecoverable machine fault.
func (c *Core) SetFatal(p hwthread.PTID, f *hwthread.Fault) {
	if c.fatal == nil {
		c.fatal = fmt.Errorf("core %d: %w", c.id, f)
		c.fatalPTID = p
		c.fatalFault = f
	}
}

// FatalInfo returns the structured form of the first fatal fault: the ptid
// that raised it and the fault itself (nil while healthy). Checkpoints carry
// it, so a restored run reports the fault its source run raised.
func (c *Core) FatalInfo() (hwthread.PTID, *hwthread.Fault) {
	return c.fatalPTID, c.fatalFault
}

// raise runs the §3.1 exception path on t and handles the no-handler case.
func (c *Core) raise(t *hwthread.Context, cause hwthread.ExcCause, info int64) {
	c.suspend(t)
	if c.tr != nil {
		c.traceInstant(t, "exception", cause.String())
	}
	if f := c.threads.RaiseException(t, cause, info); f != nil {
		c.SetFatal(t.PTID, f)
	}
}

// AccessCost charges the cache hierarchy for one access from native code.
func (c *Core) AccessCost(addr int64) sim.Cycles { return c.hier.AccessCycles(addr) }

// ReadWord reads simulated memory (no timing; pair with AccessCost).
func (c *Core) ReadWord(addr int64) int64 { return c.mem.Read(addr) }

// WriteWord writes simulated memory as a CPU store (observers fire).
func (c *Core) WriteWord(addr, val int64) { c.mem.Write(addr, val, mem.SrcCPU) }

// ArmWatches arms monitor watches for a thread from native code without
// blocking. Use with WaitArmed to implement the race-free service idiom:
// arm first, then drain pending work, then wait — a write that lands during
// the drain is caught by the monitor's pending flag and WaitArmed completes
// immediately instead of sleeping through it.
func (c *Core) ArmWatches(t *hwthread.Context, addrs ...int64) {
	w := c.waiters[t.PTID]
	for _, a := range addrs {
		c.mon.Arm(w, a)
	}
}

// WaitArmed blocks the thread on its previously armed watches (MWAIT from
// native code). It returns true if the thread blocked; false if a watched
// write already landed (the wake was delivered synchronously and the thread
// keeps running). The thread's PC is NOT advanced: a blocked thread
// re-enters the same native instruction on wakeup (service-loop idiom).
func (c *Core) WaitArmed(t *hwthread.Context) bool {
	if c.mon.Wait(c.waiters[t.PTID]) {
		t.State = hwthread.Waiting
		c.suspend(t)
		if c.tr != nil {
			c.traceStateBegin(t, "waiting", "mwait")
		}
		return true
	}
	return false
}

// ArmAndWait arms watches and immediately waits — only safe when no work
// check happens between arming and waiting (otherwise use ArmWatches +
// WaitArmed around the check).
func (c *Core) ArmAndWait(t *hwthread.Context, addrs ...int64) bool {
	c.ArmWatches(t, addrs...)
	return c.WaitArmed(t)
}

// MonitorWaiter returns the monitor.Waiter identity of ptid p (nil if out of
// range). The checkpoint layer uses it to translate waiter references in the
// monitor's state to stable (core, ptid) ids and back.
func (c *Core) MonitorWaiter(p hwthread.PTID) monitor.Waiter {
	if p < 0 || int(p) >= len(c.waiters) {
		return nil
	}
	return c.waiters[p]
}

// InjectSpuriousWake delivers a spurious monitor wakeup to ptid p if it is
// blocked in mwait with watches armed, and reports whether a wake was
// delivered. This is the deterministic entry the differential harness uses
// to apply a precomputed fault schedule; probabilistic injection goes
// through the machine's fault plan instead.
func (c *Core) InjectSpuriousWake(p hwthread.PTID) bool {
	if p < 0 || int(p) >= len(c.waiters) {
		return false
	}
	return c.mon.InjectWake(c.waiters[p])
}

// StopThread disables a ptid directly (supervisor/native path), cancelling
// any monitor wait.
func (c *Core) StopThread(p hwthread.PTID) {
	t := c.threads.Context(p)
	if t == nil || t.State == hwthread.Disabled {
		return
	}
	if t.State == hwthread.Waiting {
		c.mon.CancelWait(c.waiters[p])
	}
	t.State = hwthread.Disabled
	t.Stops++
	c.suspend(t)
	if c.tr != nil {
		c.traceInstant(t, "disabled", "stop")
	}
}

// StartThreadSupervised enables a ptid from native/kernel code after the
// caller has set up its registers (the kernel-side `start`), charging the
// thread-op cost to the caller implicitly (natives declare their own cost).
func (c *Core) StartThreadSupervised(p hwthread.PTID) error {
	t := c.threads.Context(p)
	if t == nil {
		return fmt.Errorf("core %d: no ptid %d", c.id, p)
	}
	if t.Prog == nil {
		return fmt.Errorf("core %d: ptid %d has no program", c.id, p)
	}
	if t.State != hwthread.Disabled {
		return nil
	}
	t.State = hwthread.Runnable
	t.Starts++
	c.resume(t, "start")
	return nil
}
