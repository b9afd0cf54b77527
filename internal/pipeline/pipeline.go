// Package pipeline models how a core's few SMT slots are multiplexed, in
// hardware, across its many runnable hardware threads (§4, "Support for
// Thread Scheduling"):
//
//	"A simple way to meet this requirement is to execute runnable hardware
//	 threads in a fine-grain, round-robin (RR) manner, which emulates
//	 processor sharing (PS) and allows all runnable threads to make progress
//	 without the need for interrupts. ... In addition to RR scheduling, we
//	 can introduce hardware support for thread priorities."
//
// The model is the fluid limit of that fine-grain round robin, processor
// sharing: with S slots and total runnable weight W, a thread of weight w
// runs at share min(1, S·w/W) of full speed. The core charges every
// instruction's latency scaled by the inverse share (Slowdown,
// ChargedLatency), the standard event-driven PS approximation; no
// instruction-by-instruction issue order is modelled.
//
// ChargedLatency is on the simulator's per-instruction hot path, so the
// runnable set is a dense slice in insertion order with an id→index table,
// and each thread's PS slowdown is cached and only recomputed when the
// runnable set or a weight changes (epoch counter) — queries are O(1) with
// no division in the steady state.
package pipeline

import (
	"fmt"

	"nocs/internal/sim"
	"nocs/internal/trace"
)

type thread struct {
	id     int
	weight int

	// slowdown caches the PS slowdown; valid while sdEpoch == Pipeline.epoch.
	slowdown float64
	sdEpoch  uint64
}

// Pipeline is the hardware issue multiplexer for one core.
type Pipeline struct {
	slots int

	// threads is dense in stable insertion order; pos maps thread id to
	// its position+1 (0 = absent) — a dense slice, not a map, because the
	// lookup is on the per-instruction hot path and ids are small (ptids).
	// Remove shifts the tail down so order is preserved.
	threads []thread
	pos     []int32

	totalWeight int
	// epoch invalidates cached slowdowns; bumped on Add/Remove/weight change.
	epoch uint64

	// Tracing (nil tr = off; one pointer compare on the hot paths). Add and
	// Remove sample the runnable-count and slot-occupancy counters.
	tr         *trace.Tracer
	trNow      func() int64
	trCounters trace.TrackID
}

// New creates a pipeline with the given number of SMT issue slots
// (the paper suggests 2–4; default 2 if slots < 1).
func New(slots int) *Pipeline {
	if slots < 1 {
		slots = 2
	}
	return &Pipeline{slots: slots, epoch: 1}
}

// posOf returns id's dense index, or -1 when id is not runnable.
func (p *Pipeline) posOf(id int) int {
	if id < 0 || id >= len(p.pos) {
		return -1
	}
	return int(p.pos[id]) - 1
}

// setPos records id's dense index, growing the id table on demand.
func (p *Pipeline) setPos(id, i int) {
	for id >= len(p.pos) {
		p.pos = append(p.pos, 0)
	}
	p.pos[id] = int32(i) + 1
}

// SetTracer attaches a tracer. now supplies the current cycle (the pipeline
// has no clock of its own); process names the track group. Pass a nil tracer
// to disable.
func (p *Pipeline) SetTracer(tr *trace.Tracer, now func() int64, process string) {
	p.tr = tr
	p.trNow = now
	if tr == nil {
		return
	}
	p.trCounters = tr.NewTrack(process, "pipeline")
}

// traceCounters samples the runnable-count and slot-occupancy counters.
func (p *Pipeline) traceCounters() {
	at := p.trNow()
	p.tr.Count(p.trCounters, "runnable", at, int64(len(p.threads)))
	busy := len(p.threads)
	if busy > p.slots {
		busy = p.slots
	}
	p.tr.Count(p.trCounters, "slots-busy", at, int64(busy))
}

// Len returns the number of runnable threads.
func (p *Pipeline) Len() int { return len(p.threads) }

// Add makes thread id runnable with the given weight (min 1).
// Adding an existing id updates its weight.
func (p *Pipeline) Add(id, weight int) {
	if weight < 1 {
		weight = 1
	}
	if i := p.posOf(id); i >= 0 {
		t := &p.threads[i]
		if t.weight != weight {
			p.totalWeight += weight - t.weight
			t.weight = weight
			p.epoch++
		}
		return
	}
	p.setPos(id, len(p.threads))
	p.threads = append(p.threads, thread{id: id, weight: weight})
	p.totalWeight += weight
	p.epoch++
	if p.tr != nil {
		p.traceCounters()
	}
}

// Remove takes thread id out of the runnable set. The order of the
// surviving threads is unchanged.
func (p *Pipeline) Remove(id int) {
	i := p.posOf(id)
	if i < 0 {
		return
	}
	p.totalWeight -= p.threads[i].weight
	copy(p.threads[i:], p.threads[i+1:])
	p.threads = p.threads[:len(p.threads)-1]
	p.pos[id] = 0
	for j := i; j < len(p.threads); j++ {
		p.pos[p.threads[j].id] = int32(j) + 1
	}
	p.epoch++
	if p.tr != nil {
		p.traceCounters()
	}
}

// Contains reports whether id is runnable.
func (p *Pipeline) Contains(id int) bool {
	return p.posOf(id) >= 0
}

// Weight returns thread id's weight (0 if absent).
func (p *Pipeline) Weight(id int) int {
	if i := p.posOf(id); i >= 0 {
		return p.threads[i].weight
	}
	return 0
}

// slowdownOf returns t's cached PS slowdown, recomputing it if the runnable
// set changed since the cache was filled.
func (p *Pipeline) slowdownOf(t *thread) float64 {
	if t.sdEpoch != p.epoch {
		share := float64(p.slots) * float64(t.weight) / float64(p.totalWeight)
		if share >= 1 {
			t.slowdown = 1
		} else {
			t.slowdown = 1 / share
		}
		t.sdEpoch = p.epoch
	}
	return t.slowdown
}

// Slowdown returns the PS slowdown factor for thread id: ≥ 1, equal to 1
// while the runnable set fits in the SMT slots. Returns 0 for absent ids.
func (p *Pipeline) Slowdown(id int) float64 {
	i := p.posOf(id)
	if i < 0 {
		return 0
	}
	return p.slowdownOf(&p.threads[i])
}

// ChargedLatency scales a base instruction latency by the thread's current
// PS slowdown, rounding up. This is what the core charges per instruction.
// The uncontended case (slowdown exactly 1: runnable set fits in the SMT
// slots) skips the float math entirely.
func (p *Pipeline) ChargedLatency(id int, base sim.Cycles) sim.Cycles {
	i := p.posOf(id)
	if i < 0 {
		return base
	}
	return Charge(base, p.slowdownOf(&p.threads[i]))
}

// Charge scales a base latency by a PS slowdown with ChargedLatency's
// rounding: ⌈base·sd⌉, never below base. Callers that hold a thread's
// slowdown across instructions (the core's fast loop: fast ops never change
// the runnable set) charge through it directly.
func Charge(base sim.Cycles, sd float64) sim.Cycles {
	if sd == 1 {
		return base
	}
	c := sim.Cycles(float64(base)*sd + 0.999999)
	if c < base {
		c = base
	}
	return c
}

// String summarizes the pipeline state for debugging.
func (p *Pipeline) String() string {
	return fmt.Sprintf("pipeline{slots=%d runnable=%d weight=%d}", p.slots, len(p.threads), p.totalWeight)
}
