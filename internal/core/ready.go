package core

import (
	"nocs/internal/hwthread"
	"nocs/internal/sim"
)

// The core's ready queue (DESIGN.md §11). Every runnable ptid with an issue
// pending has one entry, keyed by (issue cycle, sequence number) with the
// number taken from sim.Engine.ReserveSeqs — the number AfterCallback would
// have used had the issue been an engine event. Only a prefix of the queue
// is "armed", i.e. also queued in the engine heap under the same key, and
// whenever the core is not dispatching that prefix includes the head. So
// the engine's next event is exactly the one it would be if every entry
// were in the heap, while the heap holds about one entry per core. When a
// thread's batch yields, the core dispatches its next entry inline
// (sim.Engine.RunInline) for as long as that entry is what the engine would
// pop next: the SMT threads of an oversubscribed core take turns inside the
// core rather than through the global heap.
//
// Cancelling an armed entry cancels its engine event; cancelling an unarmed
// one queues an engine tombstone at its key. Either way the heap holds the
// tombstone a cancelled engine event would have left, so the heap minimum,
// BatchHorizon, Ran and a checkpoint's tombstone list stay what they would
// be with one engine event per pending issue.

// readyEntry is one pending issue: thread t's next instruction at cycle at.
type readyEntry struct {
	at  sim.Cycles
	seq uint64
	t   *hwthread.Context
	h   sim.Handle // the engine event while armed
}

func readyLess(a, b *readyEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// readyQueue is a ring buffer sorted by (at, seq), its first armed entries
// armed. In the round-robin case a yielding thread's entry goes to the tail
// (insert) and the next thread comes off the head (pop), both O(1).
type readyQueue struct {
	buf   []readyEntry // length is zero or a power of two
	head  int
	n     int
	armed int
}

// at returns the i-th entry in key order.
func (q *readyQueue) at(i int) *readyEntry {
	return &q.buf[(q.head+i)&(len(q.buf)-1)]
}

// insert adds e in key order and returns its position.
func (q *readyQueue) insert(e readyEntry) int {
	if q.n < len(q.buf) && (q.n == 0 || !readyLess(&e, q.at(q.n-1))) {
		q.buf[(q.head+q.n)&(len(q.buf)-1)] = e
		q.n++
		return q.n - 1
	}
	return q.insertSorted(e)
}

// insertSorted is insert's general case: grow if full, then shift the
// entries that sort after e.
func (q *readyQueue) insertSorted(e readyEntry) int {
	if q.n == len(q.buf) {
		q.grow()
	}
	mask := len(q.buf) - 1
	i := q.n
	for i > 0 && readyLess(&e, q.at(i-1)) {
		i--
	}
	for j := q.n; j > i; j-- {
		q.buf[(q.head+j)&mask] = q.buf[(q.head+j-1)&mask]
	}
	q.buf[(q.head+i)&mask] = e
	q.n++
	return i
}

// grow doubles the ring (minimum 8), unrolling it to start at index 0.
func (q *readyQueue) grow() {
	nb := make([]readyEntry, max(8, 2*len(q.buf)))
	for i := 0; i < q.n; i++ {
		nb[i] = *q.at(i)
	}
	q.buf, q.head = nb, 0
}

// pop removes and returns the head.
func (q *readyQueue) pop() readyEntry {
	e := q.buf[q.head]
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return e
}

// remove deletes the i-th entry, shifting whichever side is shorter.
func (q *readyQueue) remove(i int) {
	mask := len(q.buf) - 1
	if i < q.n/2 {
		for j := i; j > 0; j-- {
			q.buf[(q.head+j)&mask] = q.buf[(q.head+j-1)&mask]
		}
		q.head = (q.head + 1) & mask
	} else {
		for j := i; j < q.n-1; j++ {
			q.buf[(q.head+j)&mask] = q.buf[(q.head+j+1)&mask]
		}
	}
	q.n--
}

// find returns p's position; p must be queued.
func (q *readyQueue) find(p hwthread.PTID) int {
	for i := 0; i < q.n; i++ {
		if q.at(i).t.PTID == p {
			return i
		}
	}
	panic("core: ready queue lost a queued ptid")
}

// execEvent is the engine event body of every armed entry: the engine pops
// armed entries in key order, and the armed entries are the queue's prefix,
// so the one it pops is the queue's head.
type execEvent struct{ c *Core }

func (x *execEvent) OnEvent() {
	c := x.c
	e := c.rq.pop()
	c.rq.armed--
	c.inQ[e.t.PTID] = false
	c.run(e.t)
}

// scheduleExec queues t's next issue delay cycles from now, replacing the
// one it has queued, if any.
func (c *Core) scheduleExec(t *hwthread.Context, delay sim.Cycles) {
	c.cancelExec(t.PTID)
	c.enqueue(readyEntry{at: c.eng.Now() + delay, seq: c.eng.ReserveSeqs(1), t: t})
}

// enqueue inserts e, whose thread has no issue queued. An entry that sorts
// ahead of an armed one is armed too, which keeps the armed entries a
// prefix. A core that is not dispatching keeps its head armed, and an entry
// queued into an empty queue is armed at once: it is most often the issue
// of a batch that just yielded alone on its core, which the engine cannot
// dispatch before its own head, so it costs one ReserveSeqs and one AtSeq.
func (c *Core) enqueue(e readyEntry) {
	i := c.rq.insert(e)
	c.inQ[e.t.PTID] = true
	if i < c.rq.armed || (c.rq.armed == 0 && (!c.dispatching || c.rq.n == 1)) {
		c.arm(i)
	}
}

// arm queues the i-th entry in the engine heap under its key.
func (c *Core) arm(i int) {
	e := c.rq.at(i)
	e.h = c.eng.AtSeq(e.at, e.seq, "exec", &c.exec)
	c.rq.armed++
}

// cancelExec drops p's queued issue, if any, leaving an engine tombstone at
// its key.
func (c *Core) cancelExec(p hwthread.PTID) {
	if !c.inQ[p] {
		return
	}
	i := c.rq.find(p)
	if e := c.rq.at(i); i < c.rq.armed {
		c.eng.Cancel(e.h)
		c.rq.armed--
	} else {
		c.eng.Tombstone(e.at, e.seq, "exec")
	}
	c.rq.remove(i)
	c.inQ[p] = false
	if !c.dispatching && c.rq.armed == 0 && c.rq.n > 0 {
		c.arm(0)
	}
}

// next dispatches the queue's head inline when it is the event the engine
// would run next and returns its thread, with a new batch begun; otherwise
// it returns nil and the head waits to be armed.
func (c *Core) next() *hwthread.Context {
	if c.rq.armed > 0 || c.rq.n == 0 {
		return nil
	}
	if e := c.rq.at(0); !c.eng.RunInline(e.at, e.seq, "exec") {
		return nil
	}
	t := c.rq.pop().t
	c.inQ[t.PTID] = false
	if c.tr != nil {
		c.batchAt, c.batchRetired = c.eng.Now(), t.Retired
	}
	return t
}

// rotate queues the issue at cycle at of t, whose batch just yielded with
// nothing queued, and returns next's thread: it is scheduleExec then next,
// fused for the round-robin case — t's issue sorts last, nothing is armed,
// the head may run inline — where it takes the head and appends t's issue
// in one step.
func (c *Core) rotate(t *hwthread.Context, at sim.Cycles) *hwthread.Context {
	q := &c.rq
	e := readyEntry{at: at, seq: c.eng.ReserveSeqs(1), t: t}
	if q.armed > 0 || q.n == 0 || readyLess(&e, q.at(q.n-1)) {
		c.enqueue(e)
		return c.next()
	}
	if h := q.at(0); !c.eng.RunInline(h.at, h.seq, "exec") {
		c.enqueue(e)
		return nil
	}
	next := q.at(0).t
	q.head = (q.head + 1) & (len(q.buf) - 1)
	*q.at(q.n - 1) = e // the slot after the old tail, or the head's if the ring is full
	c.inQ[next.PTID] = false
	c.inQ[t.PTID] = true
	if c.tr != nil {
		c.batchAt, c.batchRetired = c.eng.Now(), next.Retired
	}
	return next
}

// nextQueuedAt returns the earliest pending event time on this core's
// shard — the engine's head or the ready queue's — or ok=false when both
// are empty.
func (c *Core) nextQueuedAt() (sim.Cycles, bool) {
	at, ok := c.eng.NextEventAt()
	if c.rq.n > 0 {
		if h := c.rq.at(0).at; !ok || h < at {
			at, ok = h, true
		}
	}
	return at, ok
}
