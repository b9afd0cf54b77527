package pipeline

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"nocs/internal/sim"
)

func TestAddRemoveContains(t *testing.T) {
	p := New(2)
	p.Add(1, 1)
	p.Add(2, 3)
	if !p.Contains(1) || !p.Contains(2) || p.Contains(3) {
		t.Fatal("Contains")
	}
	if p.Len() != 2 || p.totalWeight != 4 {
		t.Fatalf("len=%d weight=%d", p.Len(), p.totalWeight)
	}
	p.Add(2, 5) // weight update
	if p.totalWeight != 6 || p.Weight(2) != 5 {
		t.Fatalf("after update weight=%d", p.totalWeight)
	}
	p.Remove(1)
	if p.Contains(1) || p.Len() != 1 || p.totalWeight != 5 {
		t.Fatal("Remove")
	}
	p.Remove(1) // idempotent
	if p.Weight(9) != 0 {
		t.Fatal("absent weight")
	}
}

func TestWeightClamp(t *testing.T) {
	p := New(2)
	p.Add(1, 0)
	p.Add(2, -4)
	if p.Weight(1) != 1 || p.Weight(2) != 1 {
		t.Fatal("weights not clamped to 1")
	}
	if New(0).slots != 2 {
		t.Fatal("default slots")
	}
}

func TestSlowdownNoContention(t *testing.T) {
	p := New(2)
	p.Add(1, 1)
	p.Add(2, 1)
	// 2 threads on 2 slots: full speed.
	if p.Slowdown(1) != 1 || p.Slowdown(2) != 1 {
		t.Fatal("slowdown with free slots")
	}
	if p.Slowdown(99) != 0 {
		t.Fatal("absent thread slowdown")
	}
}

func TestSlowdownContention(t *testing.T) {
	p := New(2)
	for i := 0; i < 8; i++ {
		p.Add(i, 1)
	}
	// 8 equal threads on 2 slots: each runs at 1/4 speed.
	for i := 0; i < 8; i++ {
		if got := p.Slowdown(i); math.Abs(got-4) > 1e-9 {
			t.Fatalf("slowdown = %v, want 4", got)
		}
	}
}

func TestSlowdownWeighted(t *testing.T) {
	p := New(1)
	p.Add(1, 3) // total weight 4, 1 slot
	p.Add(2, 1)
	// share(1) = 3/4 -> slowdown 4/3; share(2) = 1/4 -> slowdown 4.
	if got := p.Slowdown(1); math.Abs(got-4.0/3.0) > 1e-9 {
		t.Fatalf("slowdown(1) = %v", got)
	}
	if got := p.Slowdown(2); math.Abs(got-4) > 1e-9 {
		t.Fatalf("slowdown(2) = %v", got)
	}
}

func TestHighWeightCapsAtFullSpeed(t *testing.T) {
	p := New(2)
	p.Add(1, 100)
	p.Add(2, 1)
	if p.Slowdown(1) != 1 {
		t.Fatal("share > 1 must clamp to full speed")
	}
}

func TestChargedLatency(t *testing.T) {
	p := New(1)
	p.Add(1, 1)
	p.Add(2, 1)
	// slowdown 2: base 3 -> 6.
	if got := p.ChargedLatency(1, 3); got != 6 {
		t.Fatalf("charged = %v", got)
	}
	// Absent id charges base.
	if got := p.ChargedLatency(9, 3); got != 3 {
		t.Fatalf("absent charged = %v", got)
	}
	// Rounding up: 3 threads, 1 slot, base 1 -> 3; base 2 -> 6.
	p.Add(3, 1)
	if got := p.ChargedLatency(1, 1); got != 3 {
		t.Fatalf("charged = %v", got)
	}
}

// ChargedLatency is called once per simulated instruction; it must not
// allocate (ISSUE 1 hot-path guard).
func TestChargedLatencyAllocFree(t *testing.T) {
	p := New(2)
	for i := 0; i < 8; i++ {
		p.Add(i, 1+i%3)
	}
	p.Slowdown(0) // warm the cache
	if a := testing.AllocsPerRun(1000, func() {
		if p.ChargedLatency(3, 100) < 100 {
			t.Fatal("charged below base")
		}
	}); a != 0 {
		t.Fatalf("ChargedLatency allocates %.1f per op, want 0", a)
	}
	// Membership churn invalidates the cache but still must not allocate
	// once the id→index table has seen the ids.
	if a := testing.AllocsPerRun(1000, func() {
		p.Remove(3)
		p.Add(3, 2)
		_ = p.ChargedLatency(3, 100)
	}); a != 0 {
		t.Fatalf("churned ChargedLatency allocates %.1f per op, want 0", a)
	}
}

// The cached slowdown must track weight and membership changes exactly.
func TestSlowdownCacheInvalidation(t *testing.T) {
	p := New(2)
	p.Add(1, 1)
	p.Add(2, 1)
	p.Add(3, 1)
	p.Add(4, 1)
	// 4 equal threads, 2 slots: slowdown 2.
	if got := p.Slowdown(1); math.Abs(got-2) > 1e-9 {
		t.Fatalf("slowdown = %v, want 2", got)
	}
	p.Remove(3)
	p.Remove(4)
	// Now 2 threads on 2 slots: full speed — a stale cache would still say 2.
	if got := p.Slowdown(1); got != 1 {
		t.Fatalf("slowdown after removals = %v, want 1", got)
	}
	p.Add(1, 3) // weight change: total 4, share(1)=2*3/4>1 → 1; share(2)=2/4 → 2
	if got := p.Slowdown(2); math.Abs(got-2) > 1e-9 {
		t.Fatalf("slowdown after weight change = %v, want 2", got)
	}
}

func TestStringer(t *testing.T) {
	p := New(2)
	p.Add(1, 1)
	if !strings.Contains(p.String(), "runnable=1") {
		t.Fatalf("String: %s", p.String())
	}
}

// Property: slowdown is never below 1 for present threads and total issue
// share is conserved (sum of 1/slowdown ≤ slots).
func TestSlowdownConservationProperty(t *testing.T) {
	f := func(weights []uint8, slots uint8) bool {
		s := int(slots%4) + 1
		p := New(s)
		n := 0
		for i, w := range weights {
			if n >= 32 {
				break
			}
			p.Add(i, int(w%7)+1)
			n++
		}
		if n == 0 {
			return true
		}
		sumShare := 0.0
		for i := 0; i < n; i++ {
			sd := p.Slowdown(i)
			if sd < 1 {
				return false
			}
			sumShare += 1 / sd
		}
		return sumShare <= float64(s)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestChargedLatencyNeverBelowBase(t *testing.T) {
	f := func(nThreads uint8, base uint16) bool {
		p := New(2)
		n := int(nThreads%20) + 1
		for i := 0; i < n; i++ {
			p.Add(i, 1)
		}
		b := sim.Cycles(base%1000) + 1
		return p.ChargedLatency(0, b) >= b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
