package kernel

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"nocs/internal/faultinject"
	"nocs/internal/hwthread"
	"nocs/internal/sim"
	"nocs/internal/snapshot"
	"nocs/internal/workload"
)

// Checkpoint support (DESIGN.md §13) for the queueing servers. Each server
// serializes its ring FIFO, counters, and every event it owns: pending
// arrivals, in-flight completions or quantum slices, and the PS next-finisher.
// Pending arrivals are written as (at, seq, request) records in key order
// straight from the arrival stream, whose head is the only one in the heap;
// restore re-arms that head. Pooled completion and slice bodies carry no
// retained handles, so the codec reclaims them through the engine's
// VisitLiveEvents enumeration — the owner recognizes its own payload types
// among the live events — instead of paying per-event handle bookkeeping on
// the hot path. Freelists and event pools are capacity, not state: they
// restore empty and re-grow.
//
// Trace lanes (EnableTrace) are wiring and re-base like every other tracer;
// OnComplete callbacks are re-attached by the restore target's driver.

// ComponentCodec is a checkpointable standalone-shard component: a queueing
// server or anything else composed into a shard checkpoint by SnapshotShard.
type ComponentCodec interface {
	SnapshotState(w *snapshot.W) error
	RestoreState(r *snapshot.R) error
	// ClaimEvents marks the sequence numbers of every live event this
	// component owns (and will re-create on restore) in the engine's
	// claimed set.
	ClaimEvents(claimed map[uint64]bool)
}

// Component pairs a section name with a checkpointable component.
type Component struct {
	Name string
	C    ComponentCodec
}

// SnapshotShard serializes a bare shard — engine clock, counters, tombstones
// — plus the given components into b. This is the standalone composition the
// queueing experiments use (they run on a solo shard, not inside a Machine):
// one "engine" section plus one "srv/<name>" section per component. A live
// event no component claims is an error naming the event.
func SnapshotShard(b *snapshot.Builder, eng *sim.Shard, comps ...Component) error {
	claimed := make(map[uint64]bool)
	for _, c := range comps {
		c.C.ClaimEvents(claimed)
	}
	for _, c := range comps {
		if err := c.C.SnapshotState(b.Section("srv/" + c.Name)); err != nil {
			return fmt.Errorf("kernel: snapshot %s: %w", c.Name, err)
		}
	}
	now, seq, ran, tombs, err := eng.SnapshotEvents(claimed)
	if err != nil {
		return err
	}
	w := b.Section("engine")
	w.I64(int64(now)).U64(seq).U64(ran)
	w.Len(len(tombs))
	for _, t := range tombs {
		w.I64(int64(t.At)).U64(t.Seq).String(t.Name)
	}
	return nil
}

// RestoreShard rebuilds a shard checkpoint written by SnapshotShard into a
// freshly constructed (or rewound) engine and identically constructed
// components.
func RestoreShard(snap *snapshot.Snapshot, eng *sim.Shard, comps ...Component) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("kernel: restore: %v", p)
		}
	}()
	er, err := snap.Section("engine")
	if err != nil {
		return err
	}
	now, seq, ran := sim.Cycles(er.I64()), er.U64(), er.U64()
	nt := er.Len(17)
	type tombRec struct {
		at   sim.Cycles
		seq  uint64
		name string
	}
	tombs := make([]tombRec, nt)
	for i := range tombs {
		tombs[i] = tombRec{sim.Cycles(er.I64()), er.U64(), er.String()}
	}
	if err := er.Err(); err != nil {
		return err
	}
	eng.BeginRestore(now)
	for _, c := range comps {
		r, err := snap.Section("srv/" + c.Name)
		if err != nil {
			return err
		}
		if err := c.C.RestoreState(r); err != nil {
			return fmt.Errorf("kernel: restore %s: %w", c.Name, err)
		}
	}
	for _, t := range tombs {
		eng.Tombstone(t.at, t.seq, t.name)
	}
	return eng.FinishRestore(seq, ran)
}

// FaultComponent adapts a fault injector (its RNG cursor and counters) to the
// shard-checkpoint composition. The injector owns no events here: queueing-
// server fault draws are synchronous.
func FaultComponent(name string, inj *faultinject.Injector) Component {
	return Component{Name: name, C: faultCodec{inj}}
}

type faultCodec struct{ inj *faultinject.Injector }

func (f faultCodec) SnapshotState(w *snapshot.W) error { f.inj.SnapshotState(w); return nil }
func (f faultCodec) ClaimEvents(map[uint64]bool)       {}
func (f faultCodec) RestoreState(r *snapshot.R) error {
	mismatch, err := f.inj.RestoreState(r)
	if err != nil {
		return err
	}
	if mismatch {
		return fmt.Errorf("kernel: snapshot fault plan on/off does not match the live injector")
	}
	return nil
}

func snapshotRequests(w *snapshot.W, reqs []workload.Request) {
	w.Len(len(reqs))
	for _, r := range reqs {
		r.SnapshotState(w)
	}
}

func restoreRequests(r *snapshot.R) []workload.Request {
	n := r.Len(24)
	reqs := make([]workload.Request, n)
	for i := range reqs {
		reqs[i] = workload.RestoreRequest(r)
	}
	return reqs
}

// eventRec is one owned live event being serialized.
type eventRec struct {
	at  sim.Cycles
	seq uint64
}

func snapshotArrivals(w *snapshot.W, a *arrivals) {
	q := a.q[a.head:]
	w.Len(len(q))
	for _, e := range q {
		w.I64(int64(e.r.Arrival)).U64(e.seq)
		e.r.SnapshotState(w)
	}
}

// restoreArrivals reads the records snapshotArrivals wrote. An arrival
// fires at its request's own arrival time, and the stream arms only its
// head, so a record whose event time disagrees with its request, or that is
// out of (at, seq) order, is corrupt.
func restoreArrivals(r *snapshot.R) ([]arrival, error) {
	n := r.Len(40)
	q := make([]arrival, n)
	for i := range q {
		at, seq := sim.Cycles(r.I64()), r.U64()
		q[i] = arrival{seq: seq, r: workload.RestoreRequest(r)}
		if r.Err() != nil {
			break
		}
		if q[i].r.Arrival != at {
			return nil, fmt.Errorf("kernel: arrival event at cycle %d carries a request arriving at %d", at, q[i].r.Arrival)
		}
		if i > 0 && compareArrivals(q[i-1], q[i]) >= 0 {
			return nil, fmt.Errorf("kernel: arrival records out of (at, seq) order at record %d", i)
		}
	}
	return q, nil
}

// ---- FCFS ----

// SnapshotState writes the FCFS server's dynamic state.
func (s *FCFSServer) SnapshotState(w *snapshot.W) error {
	snapshotRequests(w, s.queue.buf[s.queue.head:])
	w.U64(uint64(s.busy)).U64(s.done).U64(s.faulted)
	once := make([]int64, 0, len(s.faultedOnce))
	for id, v := range s.faultedOnce {
		if v {
			once = append(once, int64(id))
		}
	}
	sort.Slice(once, func(i, j int) bool { return once[i] < once[j] })
	w.I64s(once)

	var doneEvs []eventRec
	var dones []*fcfsDone
	s.eng.VisitLiveEvents(func(at sim.Cycles, seq uint64, _ string, cb sim.Callback) {
		if v, ok := cb.(*fcfsDone); ok && v.s == s {
			dones = append(dones, v)
			doneEvs = append(doneEvs, eventRec{at, seq})
		}
	})
	snapshotArrivals(w, &s.arr)
	w.Len(len(dones))
	for i, d := range dones {
		w.I64(int64(doneEvs[i].at)).U64(doneEvs[i].seq)
		d.r.SnapshotState(w)
		w.I64(int64(d.total)).I64(int64(d.pen)).Bool(d.fault)
	}
	return nil
}

// RestoreState replaces the FCFS server's dynamic state with the checkpoint's.
// The engine must be mid-restore (BeginRestore called); RestoreShard arranges
// this.
func (s *FCFSServer) RestoreState(r *snapshot.R) error {
	queued := restoreRequests(r)
	busy, done, faulted := r.U64(), r.U64(), r.U64()
	once := r.I64s()
	arrs, err := restoreArrivals(r)
	if err != nil {
		return err
	}
	nd := r.Len(57)
	type doneRec struct {
		ev    eventRec
		r     workload.Request
		total sim.Cycles
		pen   sim.Cycles
		fault bool
	}
	dones := make([]doneRec, nd)
	for i := range dones {
		dones[i] = doneRec{
			ev: eventRec{sim.Cycles(r.I64()), r.U64()}, r: workload.RestoreRequest(r),
		}
		dones[i].total, dones[i].pen, dones[i].fault = sim.Cycles(r.I64()), sim.Cycles(r.I64()), r.Bool()
	}
	if err := r.Err(); err != nil {
		return err
	}

	s.queue = ring[workload.Request]{buf: queued}
	s.busy, s.done, s.faulted = int(busy), done, faulted
	s.faultedOnce = nil
	if len(once) > 0 {
		s.faultedOnce = make(map[int]bool, len(once))
		for _, id := range once {
			s.faultedOnce[int(id)] = true
		}
	}
	s.donePool = nil
	s.arr.restore(arrs)
	for _, d := range dones {
		name := "fcfs-done"
		if d.fault {
			name = "fcfs-fault"
		}
		s.eng.AtSeq(d.ev.at, d.ev.seq, name,
			&fcfsDone{s: s, r: d.r, total: d.total, pen: d.pen, fault: d.fault})
	}
	return nil
}

// ClaimEvents marks the server's live events in the engine's claimed set.
func (s *FCFSServer) ClaimEvents(claimed map[uint64]bool) {
	s.arr.claim(claimed)
	s.eng.VisitLiveEvents(func(_ sim.Cycles, seq uint64, _ string, cb sim.Callback) {
		if v, ok := cb.(*fcfsDone); ok && v.s == s {
			claimed[seq] = true
		}
	})
}

// ---- PS ----

// SnapshotState writes the PS server's dynamic state. The fluid remainders
// are serialized raw (no advance() first): draining virtual work at snapshot
// time would reassociate the floating-point arithmetic and perturb the
// continued run by an ulp.
func (s *PSServer) SnapshotState(w *snapshot.W) error {
	active := slices.Clone(s.active)
	slices.SortFunc(active, func(a, b *psReq) int { return cmp.Compare(a.r.ID, b.r.ID) })
	w.Len(len(active))
	for _, a := range active {
		a.r.SnapshotState(w)
		w.F64(a.remaining).I64(int64(a.faultPen))
	}
	snapshotRequests(w, s.pending.buf[s.pending.head:])
	w.I64(int64(s.lastUpdate)).U64(s.done).U64(s.faulted)

	w.Bool(s.nextEv != sim.NoEvent)
	if s.nextEv != sim.NoEvent {
		at, seq, ok := s.eng.EventInfo(s.nextEv)
		if !ok {
			return fmt.Errorf("kernel: ps next-finisher event handle is stale at checkpoint")
		}
		w.I64(int64(at)).U64(seq).I64(int64(s.nextTarget.r.ID))
	}

	snapshotArrivals(w, &s.arr)
	return nil
}

// RestoreState replaces the PS server's dynamic state with the checkpoint's.
func (s *PSServer) RestoreState(r *snapshot.R) error {
	nact := r.Len(40)
	type actRec struct {
		r         workload.Request
		remaining float64
		faultPen  sim.Cycles
	}
	acts := make([]actRec, nact)
	for i := range acts {
		acts[i] = actRec{workload.RestoreRequest(r), r.F64(), sim.Cycles(r.I64())}
	}
	pending := restoreRequests(r)
	lastUpdate := sim.Cycles(r.I64())
	done, faulted := r.U64(), r.U64()
	hasNext := r.Bool()
	var next eventRec
	var nextID int64
	if hasNext {
		next = eventRec{sim.Cycles(r.I64()), r.U64()}
		nextID = r.I64()
	}
	arrs, err := restoreArrivals(r)
	if err != nil {
		return err
	}
	if err := r.Err(); err != nil {
		return err
	}

	s.active = make([]*psReq, nact)
	for i, a := range acts {
		s.active[i] = &psReq{r: a.r, remaining: a.remaining, faultPen: a.faultPen}
	}
	s.pending = ring[workload.Request]{buf: pending}
	s.lastUpdate, s.done, s.faulted = lastUpdate, done, faulted
	s.free, s.finBuf = nil, nil
	s.nextEv, s.nextTarget = sim.NoEvent, nil
	if hasNext {
		i := slices.IndexFunc(s.active, func(a *psReq) bool { return int64(a.r.ID) == nextID })
		if i < 0 {
			return fmt.Errorf("kernel: ps next-finisher targets unknown request %d", nextID)
		}
		s.nextTarget = s.active[i]
		s.nextEv = s.eng.AtSeq(next.at, next.seq, "ps-done", s)
	}
	s.arr.restore(arrs)
	return nil
}

// ClaimEvents marks the server's live events in the engine's claimed set.
func (s *PSServer) ClaimEvents(claimed map[uint64]bool) {
	s.arr.claim(claimed)
	if _, seq, ok := s.eng.EventInfo(s.nextEv); ok {
		claimed[seq] = true
	}
}

// ---- Timeslice ----

// SnapshotState writes the timeslice server's dynamic state.
func (s *TimesliceServer) SnapshotState(w *snapshot.W) error {
	w.Len(s.queue.len())
	for i := s.queue.head; i < len(s.queue.buf); i++ {
		req := s.queue.buf[i]
		req.r.SnapshotState(w)
		w.I64(int64(req.remaining))
	}
	w.U64(uint64(s.busy)).U64(s.done).U64(s.sswaps)

	var sliceEvs []eventRec
	var slices []*tsSlice
	s.eng.VisitLiveEvents(func(at sim.Cycles, seq uint64, _ string, cb sim.Callback) {
		if v, ok := cb.(*tsSlice); ok && v.s == s {
			slices = append(slices, v)
			sliceEvs = append(sliceEvs, eventRec{at, seq})
		}
	})
	snapshotArrivals(w, &s.arr)
	w.Len(len(slices))
	for i, e := range slices {
		w.I64(int64(sliceEvs[i].at)).U64(sliceEvs[i].seq)
		e.req.r.SnapshotState(w)
		w.I64(int64(e.req.remaining)).I64(int64(e.slice))
	}
	return nil
}

// RestoreState replaces the timeslice server's dynamic state with the
// checkpoint's.
func (s *TimesliceServer) RestoreState(r *snapshot.R) error {
	nq := r.Len(32)
	type reqRec struct {
		r         workload.Request
		remaining sim.Cycles
	}
	queued := make([]reqRec, nq)
	for i := range queued {
		queued[i] = reqRec{workload.RestoreRequest(r), sim.Cycles(r.I64())}
	}
	busy, done, sswaps := r.U64(), r.U64(), r.U64()
	arrs, err := restoreArrivals(r)
	if err != nil {
		return err
	}
	ns := r.Len(56)
	type sliceRec struct {
		ev        eventRec
		r         workload.Request
		remaining sim.Cycles
		slice     sim.Cycles
	}
	slices := make([]sliceRec, ns)
	for i := range slices {
		slices[i] = sliceRec{ev: eventRec{sim.Cycles(r.I64()), r.U64()}, r: workload.RestoreRequest(r)}
		slices[i].remaining, slices[i].slice = sim.Cycles(r.I64()), sim.Cycles(r.I64())
	}
	if err := r.Err(); err != nil {
		return err
	}

	buf := make([]*tsReq, nq)
	for i, q := range queued {
		buf[i] = &tsReq{r: q.r, remaining: q.remaining}
	}
	s.queue = ring[*tsReq]{buf: buf}
	s.busy, s.done, s.sswaps = int(busy), done, sswaps
	s.free, s.slicePool = nil, nil
	s.arr.restore(arrs)
	for _, e := range slices {
		s.eng.AtSeq(e.ev.at, e.ev.seq, "ts-slice",
			&tsSlice{s: s, req: &tsReq{r: e.r, remaining: e.remaining}, slice: e.slice})
	}
	return nil
}

// ClaimEvents marks the server's live events in the engine's claimed set.
func (s *TimesliceServer) ClaimEvents(claimed map[uint64]bool) {
	s.arr.claim(claimed)
	s.eng.VisitLiveEvents(func(_ sim.Cycles, seq uint64, _ string, cb sim.Callback) {
		if v, ok := cb.(*tsSlice); ok && v.s == s {
			claimed[seq] = true
		}
	})
}

var (
	_ ComponentCodec = (*FCFSServer)(nil)
	_ ComponentCodec = (*PSServer)(nil)
	_ ComponentCodec = (*TimesliceServer)(nil)
)

// ---- Nocs personality ----

// The nocs kernel's service threads are ordinary hardware threads — their
// registers, mwait parking, and armed watches are captured by the core and
// monitor codecs. What lives here is the kernel's own bookkeeping: the ptid
// allocator cursor, syscall counters, and each service's parked flag.
// Attach with m.AttachSnapshotter("nocs", shard, k) on both machines; the
// restore target must have spawned the same services in the same order
// (validated). In-flight syscall completions ("syscall-done") and request-
// runner completions ("req-done") are not checkpointable — checkpoint between
// them or the engine's unclaimed-event check names them.

// SnapshotState writes the kernel personality's dynamic state.
func (k *Nocs) SnapshotState(w *snapshot.W) error {
	w.I64(int64(k.nextPtid))
	w.U64(k.syscalls).U64(k.unknown).U64(k.reArms)
	w.I64(int64(k.services)).I64(int64(k.nativeSeq))
	w.Len(len(k.svcParked))
	for _, p := range k.svcParked {
		w.Bool(p)
	}
	return nil
}

// RestoreState replaces the kernel personality's dynamic state with the
// checkpoint's.
func (k *Nocs) RestoreState(r *snapshot.R) error {
	nextPtid := r.I64()
	syscalls, unknown, reArms := r.U64(), r.U64(), r.U64()
	services, nativeSeq := int(r.I64()), int(r.I64())
	np := r.Len(1)
	parked := make([]bool, np)
	for i := range parked {
		parked[i] = r.Bool()
	}
	if err := r.Err(); err != nil {
		return err
	}
	if services != k.services || nativeSeq != k.nativeSeq || np != len(k.svcParked) {
		return fmt.Errorf("kernel: snapshot has %d services / %d natives, live kernel has %d / %d — spawn the same services before restore",
			services, nativeSeq, k.services, k.nativeSeq)
	}
	k.nextPtid = hwthread.PTID(nextPtid)
	k.syscalls, k.unknown, k.reArms = syscalls, unknown, reArms
	copy(k.svcParked, parked)
	return nil
}

// LiveHandles lists the kernel's queued events for the engine's claimed set.
// The nocs personality owns none: service work is charged inline on the
// hardware threads, and the transient syscall/request completion closures
// are deliberately outside the format (see above).
func (k *Nocs) LiveHandles() []sim.Handle { return nil }
