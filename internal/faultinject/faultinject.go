// Package faultinject provides a deterministic, seeded fault plan for the
// simulator — the adversarial counterpart of the clean-path machinery. The
// paper's central claim is that parked hardware threads can replace context
// switches *even when the world misbehaves* (§4 "Exceptions become memory
// writes"); this package supplies the misbehavior:
//
//   - delayed, reordered, and dropped DMA completions in internal/device;
//   - spurious and coalesced monitor wakeups in internal/monitor;
//   - transient (retryable, ECC-style) state-transfer errors in
//     internal/statestore;
//   - thread faults injected mid-packet in internal/netstack.
//
// A Plan is pure data: probabilities and latencies plus a seed. An Injector
// is the runtime half — one per machine, created by machine.New when the
// WithFaultPlan option is given, polled from each layer's hot path. Every
// decision comes from a single splitmix64 stream, so a fixed program and
// plan produce a byte-identical fault schedule on every run.
//
// A nil *Injector is valid everywhere and injects nothing: layers hold the
// possibly-nil pointer and call it unconditionally, following the tracer's
// zero-cost-when-disabled idiom.
package faultinject

import (
	"fmt"

	"nocs/internal/sim"
	"nocs/internal/trace"
)

// Plan parameterizes the injected faults. The zero value injects nothing;
// Default() returns the moderate all-faults-on plan behind `nocsim -faults
// default`.
type Plan struct {
	// Seed feeds the injector's RNG. Two machines with equal plans and
	// equal event sequences draw identical fault schedules.
	Seed uint64

	// DMADelayP is the probability that one DMA completion is delayed
	// by a uniform extra latency in [1, DMADelayMax]. Independently delayed
	// completions overtake each other, so this also produces reordering.
	DMADelayP   float64
	DMADelayMax sim.Cycles

	// DMADropP is the probability that a completion is dropped on first
	// attempt. The device's recovery logic redelivers it DMARedeliver
	// cycles later (a dropped completion is lost, not forgotten: liveness
	// requires eventual delivery).
	DMADropP     float64
	DMARedeliver sim.Cycles

	// SpuriousWakeP is the per-blocking-wait probability that the monitor
	// falsely reports a write SpuriousDelay cycles after the waiter parks.
	// The woken thread finds no work and must re-arm (the §4 hazard class
	// that lock literature calls spurious wakeup).
	SpuriousWakeP float64
	SpuriousDelay sim.Cycles

	// CoalesceP is the per-wake-batch probability that delivery is deferred
	// by CoalesceDelay cycles, modeling a monitor filter that batches
	// back-to-back writes into one late notification. Deferred waiters that
	// are woken by another write in the meantime are simply skipped — the
	// wake is coalesced, never lost.
	CoalesceP     float64
	CoalesceDelay sim.Cycles

	// TransferErrP is the per-attempt probability that a thread-state
	// transfer from a non-RF tier takes a transient ECC-style error. The
	// store retries up to TransferRetries times (charging TransferRetryCost
	// extra cycles per retry); if every retry faults it falls back to
	// serving the start from the next tier down.
	TransferErrP      float64
	TransferRetries   int
	TransferRetryCost sim.Cycles

	// RequestFaultP is the per-packet probability that the netstack RX
	// service faults mid-packet. The service redoes the packet's protocol
	// processing after RequestFaultPenalty extra cycles; the packet is still
	// delivered (degraded, never lost).
	RequestFaultP       float64
	RequestFaultPenalty sim.Cycles
}

// Default returns the moderate everything-on plan used by `-faults default`.
func Default() Plan {
	return Plan{
		Seed:                0x5eed,
		DMADelayP:           0.10,
		DMADelayMax:         900,
		DMADropP:            0.02,
		DMARedeliver:        3000,
		SpuriousWakeP:       0.05,
		SpuriousDelay:       500,
		CoalesceP:           0.05,
		CoalesceDelay:       200,
		TransferErrP:        0.02,
		TransferRetries:     2,
		TransferRetryCost:   60,
		RequestFaultP:       0.02,
		RequestFaultPenalty: 1000,
	}
}

// Enabled reports whether the plan can inject anything at all.
func (p Plan) Enabled() bool {
	return p.DMADelayP > 0 || p.DMADropP > 0 || p.SpuriousWakeP > 0 ||
		p.CoalesceP > 0 || p.TransferErrP > 0 || p.RequestFaultP > 0
}

// setDefaults fills the latency knobs a sparse plan left at zero, so a plan
// that only sets probabilities still produces sensible faults.
func (p *Plan) setDefaults() {
	if p.DMADelayMax == 0 {
		p.DMADelayMax = 900
	}
	if p.DMARedeliver == 0 {
		p.DMARedeliver = 3000
	}
	if p.SpuriousDelay == 0 {
		p.SpuriousDelay = 500
	}
	if p.CoalesceDelay == 0 {
		p.CoalesceDelay = 200
	}
	if p.TransferRetries == 0 {
		p.TransferRetries = 2
	}
	if p.TransferRetryCost == 0 {
		p.TransferRetryCost = 60
	}
	if p.RequestFaultPenalty == 0 {
		p.RequestFaultPenalty = 1000
	}
}

// Stats counts injected faults by class.
type Stats struct {
	DMADelayed     uint64
	DMADropped     uint64
	SpuriousWakes  uint64
	CoalescedWakes uint64
	TransferErrors uint64
	RequestFaults  uint64
}

// Add accumulates o's counters into s, for aggregating across machines.
func (s *Stats) Add(o Stats) {
	s.DMADelayed += o.DMADelayed
	s.DMADropped += o.DMADropped
	s.SpuriousWakes += o.SpuriousWakes
	s.CoalescedWakes += o.CoalescedWakes
	s.TransferErrors += o.TransferErrors
	s.RequestFaults += o.RequestFaults
}

// String renders the counters for reports.
func (s Stats) String() string {
	return fmt.Sprintf("faults{dma-delay=%d dma-drop=%d spurious=%d coalesced=%d xfer-err=%d req-fault=%d}",
		s.DMADelayed, s.DMADropped, s.SpuriousWakes, s.CoalescedWakes, s.TransferErrors, s.RequestFaults)
}

// Injector is the runtime fault source for one machine. All methods are
// nil-receiver safe: a nil injector never injects and costs one pointer
// test, so fault hooks stay on hot paths unconditionally.
type Injector struct {
	plan  Plan
	rng   *sim.RNG
	stats Stats

	tr      *trace.Tracer
	trNow   func() int64
	trTrack trace.TrackID
}

// New builds an injector for the plan. A plan that cannot inject anything
// yields nil, the universal "faults off" value.
func New(p Plan) *Injector {
	if !p.Enabled() {
		return nil
	}
	p.setDefaults()
	return &Injector{plan: p, rng: sim.NewRNG(p.Seed)}
}

// Stats returns the per-class injection counters.
func (i *Injector) Stats() Stats {
	if i == nil {
		return Stats{}
	}
	return i.stats
}

// SetTracer attaches a tracer; injected faults appear as instants on a
// dedicated "faults" track so a Perfetto timeline shows exactly where the
// adversary struck.
func (i *Injector) SetTracer(tr *trace.Tracer, now func() int64, process string) {
	if i == nil || tr == nil {
		return
	}
	i.tr = tr
	i.trNow = now
	i.trTrack = tr.NewTrack(process, "faults")
}

func (i *Injector) event(name, arg string) {
	if i.tr != nil {
		i.tr.InstantArg(i.trTrack, name, arg, i.trNow())
	}
}

// DMADelivery is polled once per scheduled DMA completion. It returns the
// extra latency to add to the delivery: a delay, or the redelivery latency
// the device applies after losing the first attempt. what names the
// completion for the trace ("nic-rx", "ssd-done", ...).
func (i *Injector) DMADelivery(what string) (extra sim.Cycles) {
	if i == nil {
		return 0
	}
	if i.plan.DMADropP > 0 && i.rng.Float64() < i.plan.DMADropP {
		i.stats.DMADropped++
		i.event("dma-drop", what)
		return i.plan.DMARedeliver
	}
	if i.plan.DMADelayP > 0 && i.rng.Float64() < i.plan.DMADelayP {
		d := 1 + sim.Cycles(i.rng.Intn(int(i.plan.DMADelayMax)))
		i.stats.DMADelayed++
		i.event("dma-delay", what)
		return d
	}
	return 0
}

// SpuriousWake is polled when a waiter blocks in mwait. When it fires, the
// monitor delivers a false wakeup delay cycles later (if the waiter is
// still blocked by then).
func (i *Injector) SpuriousWake() (delay sim.Cycles, ok bool) {
	if i == nil || i.plan.SpuriousWakeP <= 0 {
		return 0, false
	}
	if i.rng.Float64() >= i.plan.SpuriousWakeP {
		return 0, false
	}
	i.stats.SpuriousWakes++
	i.event("spurious-wake", "")
	return i.plan.SpuriousDelay, true
}

// CoalesceWake is polled once per monitor wake batch. When it fires, the
// batch is delivered delay cycles late instead of synchronously.
func (i *Injector) CoalesceWake() (delay sim.Cycles, ok bool) {
	if i == nil || i.plan.CoalesceP <= 0 {
		return 0, false
	}
	if i.rng.Float64() >= i.plan.CoalesceP {
		return 0, false
	}
	i.stats.CoalescedWakes++
	i.event("coalesced-wake", "")
	return i.plan.CoalesceDelay, true
}

// TransferFault is polled per state-transfer attempt from a non-RF tier.
func (i *Injector) TransferFault(tier string) bool {
	if i == nil || i.plan.TransferErrP <= 0 {
		return false
	}
	if i.rng.Float64() >= i.plan.TransferErrP {
		return false
	}
	i.stats.TransferErrors++
	i.event("transfer-error", tier)
	return true
}

// TransferRetries returns the retry budget before tier fallback.
func (i *Injector) TransferRetries() int {
	if i == nil {
		return 0
	}
	return i.plan.TransferRetries
}

// TransferRetryCost returns the extra cycles charged per transfer retry.
func (i *Injector) TransferRetryCost() sim.Cycles {
	if i == nil {
		return 0
	}
	return i.plan.TransferRetryCost
}

// RequestFault is polled once per packet the netstack RX service delivers.
// When it fires, the packet faults mid-service: the service pays penalty
// and redoes the packet's protocol processing.
func (i *Injector) RequestFault() (penalty sim.Cycles, ok bool) {
	if i == nil || i.plan.RequestFaultP <= 0 {
		return 0, false
	}
	if i.rng.Float64() >= i.plan.RequestFaultP {
		return 0, false
	}
	i.stats.RequestFaults++
	i.event("request-fault", "")
	return i.plan.RequestFaultPenalty, true
}
