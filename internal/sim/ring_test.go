package sim

import (
	"slices"
	"testing"
)

// TestRingFIFO: values leave in push order across the moves a full array
// makes, and a steady-state push and pop allocate nothing.
func TestRingFIFO(t *testing.T) {
	var q Ring[int]
	next, want := 0, 0
	for round := range 50 {
		for range round%7 + 1 {
			q.Push(next)
			next++
		}
		for range round%5 + 1 {
			if q.Len() == 0 {
				break
			}
			if got := q.Pop(); got != want {
				t.Fatalf("round %d: Pop = %d, want %d", round, got, want)
			}
			want++
		}
		if got := q.Items(); !slices.Equal(got, seq(want, next)) {
			t.Fatalf("round %d: Items = %v, want %d..%d", round, got, want, next-1)
		}
	}
	if n := testing.AllocsPerRun(1000, func() { q.Push(q.Pop()) }); n != 0 {
		t.Errorf("steady-state Push+Pop allocates %v times", n)
	}
}

func seq(from, to int) []int {
	var s []int
	for i := from; i < to; i++ {
		s = append(s, i)
	}
	return s
}

// TestRingSlotKeepsPopped: once the array is full, Slot hands back values
// that were popped, never one still queued, so a queue of slices can reuse
// the arrays of the payloads that left.
func TestRingSlotKeepsPopped(t *testing.T) {
	var q Ring[[]int64]
	for i := range 4 {
		p := q.Slot()
		*p = append((*p)[:0], int64(i))
	}
	popped := map[*int64]bool{}
	for range 2 {
		popped[&q.Pop()[0]] = true
	}
	for i := 4; i < 6; i++ {
		p := q.Slot()
		if len(*p) == 0 || !popped[&(*p)[0]] {
			t.Fatalf("Slot %d returned %v, want a popped payload's array", i, *p)
		}
		*p = append((*p)[:0], int64(i))
	}
	var got []int64
	for _, p := range q.Items() {
		got = append(got, p[0])
	}
	if !slices.Equal(got, []int64{2, 3, 4, 5}) {
		t.Fatalf("queued payloads %v, want [2 3 4 5]", got)
	}
}
