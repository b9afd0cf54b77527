package sim

// Ring is a head-indexed FIFO that recycles its backing array: Pop advances
// the head instead of re-slicing capacity away, and a push into a full
// array first moves the queued values to the front, so a steady-state queue
// pushes and pops with no allocation. (The `q = q[1:]` idiom leaks capacity
// on every pop and reallocates on a later append.)
//
// The move swaps, so every popped value stays in the array behind the
// queued ones: Slot hands such a value back, and a queue of slices can
// reuse the arrays its popped slices own.
type Ring[T any] struct {
	buf  []T // buf[head:] are queued, oldest first
	head int
}

// Len returns the number of queued values.
func (q *Ring[T]) Len() int { return len(q.buf) - q.head }

// Items returns the queued values, oldest first. The slice is valid until
// the next Push, Slot, Pop or Reset.
func (q *Ring[T]) Items() []T { return q.buf[q.head:] }

// Push queues v.
func (q *Ring[T]) Push(v T) { *q.Slot() = v }

// Slot queues one value and returns a pointer to it. The value is not
// zeroed: it is what a past Pop left in that place of the array, or zero
// in a place never used, so the caller sets what it reads.
func (q *Ring[T]) Slot() *T {
	n := len(q.buf)
	switch {
	case n < cap(q.buf):
	case q.head == 0:
		var zero T
		q.buf = append(q.buf, zero)[:n]
	default:
		// Swap the queued values to the front, so the popped ones stay in
		// the array behind them.
		n = q.Len()
		for i := range n {
			q.buf[i], q.buf[q.head+i] = q.buf[q.head+i], q.buf[i]
		}
		q.head = 0
	}
	q.buf = q.buf[:n+1]
	return &q.buf[n]
}

// Pop removes and returns the oldest value. The queue must not be empty.
func (q *Ring[T]) Pop() T {
	v := q.buf[q.head]
	if q.head++; q.head == len(q.buf) {
		q.Reset()
	}
	return v
}

// Reset empties the queue and keeps its array.
func (q *Ring[T]) Reset() { q.buf, q.head = q.buf[:0], 0 }
