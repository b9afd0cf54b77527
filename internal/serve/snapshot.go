package serve

import (
	"fmt"
	"sort"

	"nocs/internal/sim"
	"nocs/internal/snapshot"
	"nocs/internal/workload"
)

// Checkpoint support (DESIGN.md §13, §15). The cluster's Go-side state —
// workload cursors, the pending arrival and its live event, the LB's
// request table, every app server's sessions and protocol counters, the
// storage tier's cursors, and both latency histograms — serializes through
// one machine component. Everything else rides the components the cluster
// attaches alongside itself: kernels, stacks, schedulers, stores, NICs, and
// the in-flight cross-shard wire writes the machine captures natively.
// Restore requires a cluster built by New with the identical Config.

// SnapshotState writes the cluster's dynamic state.
func (c *Cluster) SnapshotState(w *snapshot.W) error {
	// Workload cursors.
	switch {
	case c.arrPoisson != nil:
		c.arrPoisson.SnapshotState(w)
	case c.arrPareto != nil:
		c.arrPareto.SnapshotState(w)
	}
	workload.SnapshotRNG(w, c.svcRNG)
	c.src.SnapshotState(w)

	// Pending arrival and its live event.
	w.Bool(c.havePending)
	c.pending.SnapshotState(w)
	w.I64(int64(c.lastArrival))
	w.Bool(c.arrLive)
	if c.arrLive {
		if err := c.m.Shard(c.lbShard).WriteEvent(w, c.arrH, "serve-arrival"); err != nil {
			return err
		}
	}

	// Wire sequences.
	w.I64s(c.wireSeq)
	w.I64s(c.replyWireSeq)

	// Load balancer.
	lb := &c.lb
	reqIDs := make([]int, 0, len(lb.reqT0))
	for id := range lb.reqT0 {
		reqIDs = append(reqIDs, id)
	}
	sort.Ints(reqIDs)
	w.Len(len(reqIDs))
	for _, id := range reqIDs {
		w.I64(int64(id)).I64(int64(lb.reqT0[id]))
	}
	conns := make([]int, 0, len(lb.connLeft))
	for id := range lb.connLeft {
		conns = append(conns, id)
	}
	sort.Ints(conns)
	w.Len(len(conns))
	for _, id := range conns {
		w.I64(int64(id)).I64(int64(lb.connLeft[id]))
	}
	w.Len(len(lb.inFlight))
	for _, v := range lb.inFlight {
		w.I64(int64(v))
	}
	w.I64s(lb.replySeen)
	w.U64(lb.generated).U64(lb.admitted).U64(lb.refusedReqs).U64(lb.refusedConns).U64(lb.completedReq)
	w.I64(int64(lb.open)).I64(int64(lb.openPeak))
	lb.lat.SnapshotState(w)

	// App servers.
	for _, a := range c.apps {
		w.I64(a.fed).I64(a.consumed)
		w.I64(a.fetchReq).I64(a.fetchAck).I64(a.wbReq)
		w.Len(a.fetchQ.Len())
		for _, conn := range a.fetchQ.Items() {
			w.I64(int64(conn))
		}
		w.I64(int64(a.lockFreeAt)).U64(a.lockWaits).U64(a.lockWaitCycles)
		sess := make([]int, 0, len(a.sessions))
		for conn := range a.sessions {
			sess = append(sess, conn)
		}
		sort.Ints(sess)
		w.Len(len(sess))
		for _, conn := range sess {
			s := a.sessions[conn]
			w.I64(int64(conn)).Bool(s.ready).I64(int64(s.active)).Bool(s.seenLast)
			w.I64s(s.waiting)
		}
		w.U64(a.submitted).U64(a.completed).U64(a.closed)
		a.sojourn.SnapshotState(w)
	}

	// Storage tier.
	w.I64s(c.stor.fetchSeen)
	w.I64s(c.stor.wbSeen)
	w.I64(int64(c.stor.cursor)).U64(c.stor.fetchOps).U64(c.stor.wbOps)
	return nil
}

// RestoreState replaces the cluster's state with the checkpoint's. The
// engine is mid-restore (the machine restore sequence arranges this), so
// the arrival event is re-created at its recorded (cycle, sequence). The
// arrival event New scheduled on the restore target was discarded with the
// rest of the target's pre-restore event state.
func (c *Cluster) RestoreState(r *snapshot.R) error {
	switch {
	case c.arrPoisson != nil:
		c.arrPoisson.RestoreState(r)
	case c.arrPareto != nil:
		c.arrPareto.RestoreState(r)
	}
	workload.RestoreRNG(r, c.svcRNG)
	c.src.RestoreState(r)

	c.havePending = r.Bool()
	c.pending = workload.RestoreRequest(r)
	c.lastArrival = sim.Cycles(r.I64())
	c.arrLive = r.Bool()
	if c.arrLive {
		c.arrH = c.m.Shard(c.lbShard).ReadEvent(r, "serve-arrival", &c.arrEv)
	}

	servers := len(c.wireSeq)
	if c.wireSeq = r.I64s(); r.Err() == nil && len(c.wireSeq) != servers {
		return fmt.Errorf("serve: snapshot has %d servers, cluster has %d — restore needs the same Config", len(c.wireSeq), servers)
	}
	c.replyWireSeq = r.I64s()

	lb := &c.lb
	n := r.Len(16)
	lb.reqT0 = make(map[int]sim.Cycles, n)
	for range n {
		id, t0 := r.I64(), r.I64()
		lb.reqT0[int(id)] = sim.Cycles(t0)
	}
	n = r.Len(16)
	lb.connLeft = make(map[int]int, n)
	for range n {
		id, left := r.I64(), r.I64()
		lb.connLeft[int(id)] = int(left)
	}
	if n = r.Len(8); r.Err() == nil && n != len(lb.inFlight) {
		return fmt.Errorf("serve: snapshot has %d servers, cluster has %d — restore needs the same Config", n, servers)
	}
	for i := range n {
		lb.inFlight[i] = int(r.I64())
	}
	lb.replySeen = r.I64s()
	lb.generated, lb.admitted, lb.refusedReqs, lb.refusedConns, lb.completedReq = r.U64(), r.U64(), r.U64(), r.U64(), r.U64()
	lb.open, lb.openPeak = int(r.I64()), int(r.I64())
	lb.lastDone = 0
	if lb.completedReq > 0 {
		lb.lastDone = c.m.Shard(c.lbShard).Now()
	}
	if err := lb.lat.RestoreState(r); err != nil {
		return err
	}

	for _, a := range c.apps {
		a.fed, a.consumed = r.I64(), r.I64()
		a.fetchReq, a.fetchAck, a.wbReq = r.I64(), r.I64(), r.I64()
		a.fetchQ.Reset()
		for range r.Len(8) {
			a.fetchQ.Push(int(r.I64()))
		}
		a.lockFreeAt = sim.Cycles(r.I64())
		a.lockWaits, a.lockWaitCycles = r.U64(), r.U64()
		for _, s := range a.sessions {
			a.free.Put(s)
		}
		clear(a.sessions)
		for range r.Len(16) {
			conn := int(r.I64())
			s := a.free.Get()
			*s = session{ready: r.Bool(), active: int(r.I64()), seenLast: r.Bool(), waiting: s.waiting[:0]}
			s.waiting = append(s.waiting, r.I64s()...)
			a.sessions[conn] = s
		}
		a.submitted, a.completed, a.closed = r.U64(), r.U64(), r.U64()
		if err := a.sojourn.RestoreState(r); err != nil {
			return err
		}
	}

	st := &c.stor
	fetchSeen := r.I64s()
	if r.Err() == nil && len(fetchSeen) != len(st.fetchSeen) {
		return fmt.Errorf("serve: snapshot has %d servers, cluster has %d — restore needs the same Config", len(fetchSeen), len(st.fetchSeen))
	}
	st.fetchSeen, st.wbSeen = fetchSeen, r.I64s()
	st.cursor, st.fetchOps, st.wbOps = int(r.I64()), r.U64(), r.U64()
	return r.Err()
}
