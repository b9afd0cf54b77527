package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock at %d, want 0", c.Now())
	}
	c.AdvanceTo(10)
	if c.Now() != 10 {
		t.Fatalf("after AdvanceTo(10): %d", c.Now())
	}
	c.AdvanceTo(10) // same time is allowed
	c.AdvanceTo(25)
	if c.Now() != 25 {
		t.Fatalf("after AdvanceTo(25): %d", c.Now())
	}
}

func TestClockRewindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on clock rewind")
		}
	}()
	c := NewClock()
	c.AdvanceTo(5)
	c.AdvanceTo(3)
}

func TestCyclesNanos(t *testing.T) {
	c := Cycles(30)
	if got := c.Nanos(3.0); got != 10.0 {
		t.Fatalf("30 cycles at 3GHz = %v ns, want 10", got)
	}
	if got := c.Nanos(0); got != 10.0 { // defaults to 3GHz
		t.Fatalf("default frequency: got %v, want 10", got)
	}
	if s := Cycles(3).String(); s != "3cyc (1.0ns)" {
		t.Fatalf("String: %q", s)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(nil)
	var order []int
	e.At(30, "c", func() { order = append(order, 3) })
	e.At(10, "a", func() { order = append(order, 1) })
	e.At(20, "b", func() { order = append(order, 2) })
	e.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("final time %d, want 30", e.Now())
	}
	if e.Ran() != 3 {
		t.Fatalf("ran %d, want 3", e.Ran())
	}
}

func TestEngineFIFOAtEqualTimestamps(t *testing.T) {
	e := NewEngine(nil)
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(50, "x", func() { order = append(order, i) })
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated at %d: %v", i, order[:i+1])
		}
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine(nil)
	e.Clock().AdvanceTo(100)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.At(50, "late", func() {})
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(nil)
	ran := false
	ev := e.At(10, "x", func() { ran = true })
	hit := false
	e.At(20, "y", func() { hit = true })
	e.Cancel(ev)
	if !e.Cancelled(ev) {
		t.Fatal("Cancelled() false after Cancel")
	}
	e.Run(0)
	if ran {
		t.Fatal("cancelled event ran")
	}
	if !hit {
		t.Fatal("subsequent event did not run")
	}
	if e.Now() != 20 {
		t.Fatalf("time %d, want 20", e.Now())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(nil)
	var got []Cycles
	for _, at := range []Cycles{5, 15, 25, 35} {
		at := at
		e.At(at, "x", func() { got = append(got, at) })
	}
	n := e.RunUntil(20)
	if n != 2 {
		t.Fatalf("RunUntil ran %d events, want 2", n)
	}
	if e.Now() != 20 {
		t.Fatalf("clock at %d, want 20", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending %d, want 2", e.Pending())
	}
	n = e.RunUntil(100)
	if n != 2 || e.Now() != 100 {
		t.Fatalf("second RunUntil: n=%d now=%d", n, e.Now())
	}
}

// Regression: a cancelled event at the heap head must not let RunUntil
// execute the event behind it when that event lies past the deadline. (The
// old loop peeked the head, saw the cancelled event inside the deadline, and
// then Step ran the *next* event unconditionally.)
func TestRunUntilCancelledHeadRespectsDeadline(t *testing.T) {
	e := NewEngine(nil)
	ev := e.At(10, "cancelled", func() { t.Fatal("cancelled event ran") })
	late := false
	e.At(30, "late", func() { late = true })
	e.Cancel(ev)
	n := e.RunUntil(20)
	if n != 0 {
		t.Fatalf("RunUntil ran %d events, want 0", n)
	}
	if late {
		t.Fatal("event at 30 ran with deadline 20")
	}
	if e.Now() != 20 {
		t.Fatalf("clock at %d, want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending %d, want 1", e.Pending())
	}
	// The surviving event runs once the deadline allows it.
	if n := e.RunUntil(40); n != 1 || !late {
		t.Fatalf("second RunUntil: n=%d late=%v", n, late)
	}
}

// Handles are generation-checked: cancelling a stale handle must not touch
// the recycled slot now occupied by a different event.
func TestStaleHandleCannotCancelRecycledSlot(t *testing.T) {
	e := NewEngine(nil)
	old := e.At(10, "first", func() {})
	e.Run(1) // runs and frees the slot
	ran := false
	e.At(20, "second", func() { ran = true }) // reuses the freed slot
	e.Cancel(old)                             // stale: must be a no-op
	if e.Cancelled(old) {
		t.Fatal("stale handle reports cancelled")
	}
	e.Run(0)
	if !ran {
		t.Fatal("recycled-slot event was cancelled through a stale handle")
	}
}

// Steady-state scheduling must not allocate: slots come from the freelist
// and the callback form needs no closure. This guards the arena rewrite
// against regressions (ISSUE 1: ~33% of profile time was mallocgc).
func TestEngineSchedulingAllocFree(t *testing.T) {
	e := NewEngine(nil)
	// A disabled tracer must not cost anything: the guards below run with it
	// explicitly attached as nil, the state every untraced run is in.
	e.SetTracer(nil, 0)
	fn := func() {}
	// Warm the arena and heap capacity.
	for i := 0; i < 64; i++ {
		e.After(Cycles(i), "warm", fn)
	}
	e.Run(0)
	if a := testing.AllocsPerRun(1000, func() {
		e.After(5, "tick", fn)
		e.Step()
	}); a != 0 {
		t.Fatalf("After+Step allocates %.1f per op, want 0", a)
	}
	var cb countingCallback
	if a := testing.AllocsPerRun(1000, func() {
		e.AfterCallback(5, "tick", &cb)
		e.Step()
	}); a != 0 {
		t.Fatalf("AfterCallback+Step allocates %.1f per op, want 0", a)
	}
	if cb.n == 0 {
		t.Fatal("callback never ran")
	}
}

type countingCallback struct{ n int }

func (c *countingCallback) OnEvent() { c.n++ }

func TestEngineAfterAndLimit(t *testing.T) {
	e := NewEngine(nil)
	count := 0
	var reschedule func()
	reschedule = func() {
		count++
		e.After(10, "tick", reschedule)
	}
	e.After(10, "tick", reschedule)
	e.Run(5)
	if count != 5 {
		t.Fatalf("ran %d, want 5", count)
	}
	if e.Now() != 50 {
		t.Fatalf("time %d, want 50", e.Now())
	}
}

// Property: for any set of (timestamp, id) events inserted in order, pops are
// sorted by (timestamp, insertion order).
func TestEventQueueOrderProperty(t *testing.T) {
	f := func(stamps []uint16) bool {
		e := NewEngine(nil)
		type rec struct {
			at  Cycles
			seq int
		}
		var want []rec
		var got []rec
		for i, s := range stamps {
			at := Cycles(s)
			seq := i
			want = append(want, rec{at, seq})
			e.At(at, "p", func() { got = append(got, rec{at, seq}) })
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		e.Run(0)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed streams diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if NewRNG(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds look correlated: %d collisions", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced degenerate stream")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(7)
	s := r.Split()
	// The split stream must differ from the parent's continuation.
	diverged := false
	for i := 0; i < 10; i++ {
		if r.Uint64() != s.Uint64() {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("split stream tracks parent")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(2)
	for n := 1; n < 40; n++ {
		for i := 0; i < 100; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d", n, v)
			}
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(99)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(100)
	}
	mean := sum / n
	if math.Abs(mean-100) > 2 {
		t.Fatalf("Exp mean = %v, want ~100", mean)
	}
}

func TestRNGBimodal(t *testing.T) {
	r := NewRNG(5)
	const n = 100000
	short := 0
	for i := 0; i < n; i++ {
		v := r.Bimodal(1, 100, 0.99)
		switch v {
		case 1:
			short++
		case 100:
		default:
			t.Fatalf("unexpected bimodal value %v", v)
		}
	}
	frac := float64(short) / n
	if frac < 0.985 || frac > 0.995 {
		t.Fatalf("short fraction %v, want ~0.99", frac)
	}
}

func TestRNGParetoTail(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 10000; i++ {
		v := r.Pareto(10, 1.5)
		if v < 10 {
			t.Fatalf("Pareto below scale: %v", v)
		}
	}
}

// Property: RunUntil never leaves the clock before the deadline and never
// executes an event past it.
func TestRunUntilProperty(t *testing.T) {
	f := func(stamps []uint8, deadline uint8) bool {
		e := NewEngine(nil)
		maxRun := Cycles(-1)
		for _, s := range stamps {
			at := Cycles(s)
			e.At(at, "p", func() {
				if at > maxRun {
					maxRun = at
				}
			})
		}
		e.RunUntil(Cycles(deadline))
		return e.Now() >= Cycles(deadline) && maxRun <= Cycles(deadline)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
