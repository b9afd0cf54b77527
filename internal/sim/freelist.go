package sim

// FreeList is a LIFO of recycled *T: the one free list every pooled event
// body in the simulator lives on (DESIGN.md §11). A component that schedules
// a body per event takes it with Get, and puts it back with Put once the
// body's event has fired and nothing reads it any more, so a steady-state
// event allocates nothing. A body whose event was cancelled may be put back
// at once: the engine never calls a cancelled slot (Engine.Cancel).
//
// A list is touched only by the goroutine running the owning shard (or the
// driving goroutine between windows), like the rest of the shard's state;
// it is not a sync.Pool, and nothing is ever taken from it by the GC.
type FreeList[T any] struct {
	items []*T
}

// Get returns the most recently Put value, or a new zero T when the list is
// empty. A recycled value is not zeroed: it holds what its last user left,
// so a body keeps the arrays its slices grew, and the caller sets every
// field it reads.
func (l *FreeList[T]) Get() *T {
	if len(l.items) == 0 {
		return new(T)
	}
	n := len(l.items) - 1
	x := l.items[n]
	l.items = l.items[:n]
	return x
}

// Put returns x to the list. The caller must hold no other reference to x
// that it will use again.
func (l *FreeList[T]) Put(x *T) { l.items = append(l.items, x) }
