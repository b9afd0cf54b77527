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
		at, seq, ok := c.m.Shard(c.lbShard).Claim(c.arrH)
		if !ok {
			return fmt.Errorf("serve: arrival event handle is stale at checkpoint")
		}
		w.I64(int64(at)).U64(seq)
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
		w.Len(len(a.fetchQ))
		for _, conn := range a.fetchQ {
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
	var arrAt sim.Cycles
	var arrSeq uint64
	if c.arrLive {
		arrAt, arrSeq = sim.Cycles(r.I64()), r.U64()
	}

	wireSeq := r.I64s()
	replyWireSeq := r.I64s()

	nReq := r.Len(16)
	reqT0 := make(map[int]sim.Cycles, nReq)
	for i := 0; i < nReq; i++ {
		id, t0 := r.I64(), r.I64()
		reqT0[int(id)] = sim.Cycles(t0)
	}
	nConn := r.Len(16)
	connLeft := make(map[int]int, nConn)
	for i := 0; i < nConn; i++ {
		id, left := r.I64(), r.I64()
		connLeft[int(id)] = int(left)
	}
	nIF := r.Len(8)
	inFlight := make([]int, nIF)
	for i := range inFlight {
		inFlight[i] = int(r.I64())
	}
	replySeen := r.I64s()
	gen, admit, refReq, refConn, compl := r.U64(), r.U64(), r.U64(), r.U64(), r.U64()
	open, openPeak := r.I64(), r.I64()
	if err := c.lb.lat.RestoreState(r); err != nil {
		return err
	}

	type appState struct {
		fed, consumed, fetchReq, fetchAck, wbReq int64
		fetchQ                                   []int
		lockFreeAt                               sim.Cycles
		lockWaits, lockWaitCycles                uint64
		sessions                                 map[int]*session
		submitted, completed, closed             uint64
	}
	appStates := make([]appState, len(c.apps))
	for i := range c.apps {
		st := &appStates[i]
		st.fed, st.consumed = r.I64(), r.I64()
		st.fetchReq, st.fetchAck, st.wbReq = r.I64(), r.I64(), r.I64()
		nQ := r.Len(8)
		st.fetchQ = make([]int, nQ)
		for j := range st.fetchQ {
			st.fetchQ[j] = int(r.I64())
		}
		st.lockFreeAt = sim.Cycles(r.I64())
		st.lockWaits, st.lockWaitCycles = r.U64(), r.U64()
		nSess := r.Len(16)
		st.sessions = make(map[int]*session, nSess)
		for j := 0; j < nSess; j++ {
			conn := int(r.I64())
			s := &session{ready: r.Bool(), active: int(r.I64()), seenLast: r.Bool()}
			if waiting := r.I64s(); len(waiting) > 0 {
				s.waiting = waiting
			}
			st.sessions[conn] = s
		}
		st.submitted, st.completed, st.closed = r.U64(), r.U64(), r.U64()
		if err := c.apps[i].sojourn.RestoreState(r); err != nil {
			return err
		}
	}

	fetchSeen := r.I64s()
	wbSeen := r.I64s()
	cursor, fetchOps, wbOps := r.I64(), r.U64(), r.U64()
	if err := r.Err(); err != nil {
		return err
	}

	if len(wireSeq) != len(c.wireSeq) || nIF != len(c.lb.inFlight) || len(fetchSeen) != len(c.stor.fetchSeen) {
		return fmt.Errorf("serve: snapshot has %d servers, cluster has %d — restore needs the same Config", len(wireSeq), len(c.wireSeq))
	}

	c.wireSeq, c.replyWireSeq = wireSeq, replyWireSeq
	c.lb.reqT0, c.lb.connLeft = reqT0, connLeft
	c.lb.inFlight, c.lb.replySeen = inFlight, replySeen
	c.lb.generated, c.lb.admitted, c.lb.refusedReqs, c.lb.refusedConns, c.lb.completedReq = gen, admit, refReq, refConn, compl
	c.lb.open, c.lb.openPeak = int(open), int(openPeak)
	for i, a := range c.apps {
		st := &appStates[i]
		a.fed, a.consumed = st.fed, st.consumed
		a.fetchReq, a.fetchAck, a.wbReq = st.fetchReq, st.fetchAck, st.wbReq
		a.fetchQ = st.fetchQ
		a.lockFreeAt = st.lockFreeAt
		a.lockWaits, a.lockWaitCycles = st.lockWaits, st.lockWaitCycles
		a.sessions = st.sessions
		a.submitted, a.completed, a.closed = st.submitted, st.completed, st.closed
	}
	c.stor.fetchSeen, c.stor.wbSeen = fetchSeen, wbSeen
	c.stor.cursor = int(cursor)
	c.stor.fetchOps, c.stor.wbOps = fetchOps, wbOps

	if c.arrLive {
		c.arrH = c.m.Shard(c.lbShard).AtSeq(arrAt, arrSeq, "serve-arrival", &arrivalEv{c})
	}
	return nil
}
