package sim

import "testing"

// TestFreeListLIFO: Get hands back the most recently Put value first, as
// its last user left it, and a new value only once the list is empty; a new
// value is zero.
func TestFreeListLIFO(t *testing.T) {
	var l FreeList[write]
	a, b := l.Get(), l.Get()
	if *a != (write{}) || *b != (write{}) || a == b {
		t.Fatalf("new values %+v, %+v: want two distinct zero values", *a, *b)
	}
	a.addr, b.addr = 1, 2
	l.Put(a)
	l.Put(b)
	if got := l.Get(); got != b || got.addr != 2 {
		t.Fatalf("first Get after Put(a), Put(b) = %p %+v, want b with its fields kept", got, *got)
	}
	if got := l.Get(); got != a || got.addr != 1 {
		t.Fatalf("second Get = %p %+v, want a with its fields kept", got, *got)
	}
	seen := map[*write]bool{a: true, b: true}
	for range 3 {
		x := l.Get()
		if seen[x] || *x != (write{}) {
			t.Fatalf("Get on a drained list returned %p %+v: want a new zero value", x, *x)
		}
		seen[x] = true
	}
}

// TestFreeListSteadyStateAllocFree: recycling through a list allocates
// nothing.
func TestFreeListSteadyStateAllocFree(t *testing.T) {
	var l FreeList[write]
	if n := testing.AllocsPerRun(1000, func() { l.Put(l.Get()) }); n != 0 {
		t.Errorf("Get+Put allocates %v times", n)
	}
}
