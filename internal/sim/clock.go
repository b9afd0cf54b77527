// Package sim provides the discrete-event simulation substrate used by every
// other package in nocs: a cycle-granularity clock, a deterministic event
// queue, and a splittable pseudo-random number generator. A Scheduler
// drives one or more event queues (shards) over shared virtual time on one
// or more worker goroutines; one worker is the serial determinism oracle,
// and the output is byte-identical at any worker count (DESIGN.md §12).
//
// All simulated components share a single Clock. Time is measured in CPU
// cycles (int64). Conversion helpers to nanoseconds assume a configurable
// core frequency (3 GHz by default, matching the paper's §4 arithmetic:
// "10 to 50 clock cycles (i.e., 3ns to 16ns for a 3GHz CPU)").
package sim

import "fmt"

// Cycles is a duration or timestamp measured in CPU clock cycles.
type Cycles int64

// DefaultFrequencyGHz is the simulated core clock used for cycle↔time
// conversion. The paper's examples assume a 3 GHz part.
const DefaultFrequencyGHz = 3.0

// Nanos converts a cycle count to nanoseconds at the given frequency in GHz.
func (c Cycles) Nanos(freqGHz float64) float64 {
	if freqGHz <= 0 {
		freqGHz = DefaultFrequencyGHz
	}
	return float64(c) / freqGHz
}

// String renders the cycle count with its nanosecond equivalent at 3 GHz.
func (c Cycles) String() string {
	return fmt.Sprintf("%dcyc (%.1fns)", int64(c), c.Nanos(DefaultFrequencyGHz))
}

// Clock is the global simulated time source. It only moves forward, and only
// under control of the event loop (or a component stepping cores manually).
type Clock struct {
	now Cycles
}

// NewClock returns a clock at cycle zero.
func NewClock() *Clock { return &Clock{} }

// Now returns the current simulated time.
func (c *Clock) Now() Cycles { return c.now }

// AdvanceTo moves the clock forward to t. It panics if t is in the past:
// simulated time never rewinds, and a rewind always indicates an event
// scheduled before "now", which is a simulator bug worth failing loudly on.
func (c *Clock) AdvanceTo(t Cycles) {
	if t < c.now {
		panic(fmt.Sprintf("sim: clock rewind from %d to %d", c.now, t))
	}
	c.now = t
}
