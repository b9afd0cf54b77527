package kernel

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"nocs/internal/hwthread"
	"nocs/internal/sim"
	"nocs/internal/snapshot"
	"nocs/internal/workload"
)

// Checkpoint support (DESIGN.md §13) for the queueing servers. Each server
// serializes its ring FIFO, counters, and every event it owns: pending
// arrivals, in-flight completions or quantum slices, and the PS next-finisher.
// Writing an event's record is what claims it (sim.Engine.WriteEvent), and
// restore re-creates it from the record (sim.Engine.ReadEvent). Pending
// arrivals are written as (at, seq, request) records in key order straight
// from the arrival stream, whose head is the only one in the heap; restore
// re-arms that head. Arrival, completion and slice bodies carry no retained
// handles, so the codec claims them with the engine's ClaimLive — the owner
// recognizes its own payloads among the live events — instead of paying
// per-event handle bookkeeping on the hot path. Freelists and event pools are
// capacity, not state: they restore empty and re-grow.
//
// Trace lanes (EnableTrace) are wiring and re-base like every other tracer;
// OnComplete callbacks are re-attached by the restore target's driver.
//
// The FCFS and PS sections keep slots for the request faults the servers
// once injected: FCFS's fault count, its list of requests that had faulted
// and each completion record's penalty and fault flag, and PS's fault count
// and each active request's penalty. No server faults a request, so the
// slots are written as zeros and empty lists, which keeps NOCSNAP1 bytes
// unchanged, and a checkpoint with any of them set is refused with
// ErrFaultState.

// ErrFaultState reports an FCFS or PS section that carries request-fault
// state.
var ErrFaultState = errors.New("snapshot carries request-fault state")

// ErrTrainPending reports a checkpoint of a server whose request train
// (RunStream) still has requests to draw.
var ErrTrainPending = errors.New("request train has requests left to draw")

// ErrBusyCount reports a server checkpoint whose busy count a live server
// could not have written: each busy server has exactly one in-flight
// completion or quantum-slice record, and at most K are busy.
var ErrBusyCount = errors.New("busy count does not match in-flight records")

// Component pairs a section name with a checkpointable component: a
// queueing server, a fault injector, or anything else composed into a shard
// checkpoint by SnapshotShard.
type Component struct {
	Name string
	C    snapshot.Codec
}

// SnapshotShard serializes a bare shard — engine clock, counters, tombstones
// — plus the given components into b. This is the standalone composition the
// queueing experiments use (they run on a solo shard, not inside a Machine):
// one "srv/<name>" section per component, then one "engine" section. A live
// event no component writes, or that two write, is an error naming the event.
func SnapshotShard(b *snapshot.Builder, eng *sim.Shard, comps ...Component) error {
	eng.BeginSnapshot()
	for _, c := range comps {
		if err := c.C.SnapshotState(b.Section("srv/" + c.Name)); err != nil {
			return fmt.Errorf("kernel: snapshot %s: %w", c.Name, err)
		}
	}
	return eng.SnapshotEvents(b.Section("engine"))
}

// RestoreShard rebuilds a shard checkpoint written by SnapshotShard into a
// freshly constructed (or rewound) engine and identically constructed
// components. Every section goes through snapshot.Restore, so one its
// component left partly unread is an error naming it.
func RestoreShard(snap *snapshot.Snapshot, eng *sim.Shard, comps ...Component) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("kernel: restore: %v", p)
		}
	}()
	var st sim.EngineState
	if err := snap.Restore("engine", func(r *snapshot.R) (err error) {
		st, err = sim.ReadEngineState(r)
		return err
	}); err != nil {
		return err
	}
	eng.BeginRestore(st.Now)
	for _, c := range comps {
		if err := snap.Restore("srv/"+c.Name, c.C.RestoreState); err != nil {
			return err
		}
	}
	return eng.FinishRestore(st)
}

func snapshotRequests(w *snapshot.W, reqs []workload.Request) {
	w.Len(len(reqs))
	for _, r := range reqs {
		r.SnapshotState(w)
	}
}

// restoreRequests replaces q's requests with the checkpoint's.
func restoreRequests(r *snapshot.R, q *sim.Ring[workload.Request]) {
	q.Reset()
	for range r.Len(24) {
		q.Push(workload.RestoreRequest(r))
	}
}

// snapshotArrivals writes the stream's pending arrivals and claims its armed
// ones, the stream's only live events. A request train with requests left to
// draw is refused: its source is not server state, and the queue alone would
// be a truncated train.
func snapshotArrivals(w *snapshot.W, a *arrivals) error {
	if a.src != nil {
		return fmt.Errorf("kernel: %s: %w: %d requests left", a.name, ErrTrainPending, a.left)
	}
	a.eng.ClaimLive(func(cb sim.Callback) bool { return cb == a })
	q := a.q[a.head:]
	w.Len(len(q))
	for _, e := range q {
		w.I64(int64(e.r.Arrival)).U64(e.seq)
		e.r.SnapshotState(w)
	}
	return nil
}

// restoreState reads the records snapshotArrivals wrote into the stream and
// arms its head. An arrival fires at its request's own arrival time, and the
// stream arms only its head, so a record whose event time disagrees with
// its request, or that is out of (at, seq) order, is corrupt; one before the
// restored clock is a sim.ErrEventRecord.
func (a *arrivals) restoreState(r *snapshot.R) error {
	a.q, a.head, a.armed, a.src, a.left = make([]arrival, r.Len(40)), 0, 0, nil, 0
	for i := range a.q {
		at, seq := sim.Cycles(r.I64()), r.U64()
		a.q[i] = arrival{seq: seq, r: workload.RestoreRequest(r)}
		switch {
		case r.Err() != nil:
			return r.Err()
		case a.q[i].r.Arrival != at:
			return fmt.Errorf("kernel: arrival event at cycle %d carries a request arriving at %d", at, a.q[i].r.Arrival)
		case i > 0 && compareArrivals(a.q[i-1], a.q[i]) >= 0:
			return fmt.Errorf("kernel: arrival records out of (at, seq) order at record %d", i)
		case at < a.eng.Now():
			return fmt.Errorf("kernel: %w: arrival at cycle %d, clock %d", sim.ErrEventRecord, at, a.eng.Now())
		}
	}
	if len(a.q) > 0 {
		a.arm(0)
	}
	return nil
}

// ---- FCFS ----

// SnapshotState writes the FCFS server's dynamic state.
func (s *FCFSServer) SnapshotState(w *snapshot.W) error {
	snapshotRequests(w, s.queue.Items())
	w.U64(uint64(s.busy)).U64(s.done).U64(0).Len(0)

	dones := s.eng.ClaimLive(func(cb sim.Callback) bool {
		v, ok := cb.(*fcfsDone)
		return ok && v.s == s
	})
	if err := snapshotArrivals(w, &s.arr); err != nil {
		return err
	}
	w.Len(len(dones))
	for _, ev := range dones {
		d := ev.CB.(*fcfsDone)
		w.I64(int64(ev.At)).U64(ev.Seq)
		d.r.SnapshotState(w)
		w.I64(int64(d.total)).I64(0).Bool(false)
	}
	return nil
}

// RestoreState replaces the FCFS server's dynamic state with the checkpoint's.
// The engine must be mid-restore (BeginRestore called); RestoreShard arranges
// this.
func (s *FCFSServer) RestoreState(r *snapshot.R) error {
	restoreRequests(r, &s.queue)
	busy := r.U64()
	s.done = r.U64()
	if faulted, once := r.U64(), r.Len(8); faulted != 0 || once != 0 {
		return fmt.Errorf("kernel: fcfs: %w: %d faulted, %d faulted once", ErrFaultState, faulted, once)
	}
	if err := s.arr.restoreState(r); err != nil {
		return err
	}
	nd := r.Len(57)
	if r.Err() == nil && (busy != uint64(nd) || busy > uint64(s.K)) {
		return fmt.Errorf("kernel: fcfs: %w: %d busy, %d completions, K=%d", ErrBusyCount, busy, nd, s.K)
	}
	s.busy = int(busy)
	for range nd {
		d := s.free.Get()
		d.s = s
		s.eng.ReadEvent(r, "fcfs-done", d)
		d.r = workload.RestoreRequest(r)
		d.total = sim.Cycles(r.I64())
		if pen, fault := r.I64(), r.Bool(); pen != 0 || fault {
			return fmt.Errorf("kernel: fcfs: %w: request %d has penalty %d, fault %v", ErrFaultState, d.r.ID, pen, fault)
		}
	}
	return r.Err()
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
		w.F64(a.remaining).I64(0)
	}
	snapshotRequests(w, s.pending.Items())
	w.I64(int64(s.lastUpdate)).U64(s.done).U64(0)

	w.Bool(s.nextEv != sim.NoEvent)
	if s.nextEv != sim.NoEvent {
		if err := s.eng.WriteEvent(w, s.nextEv, "ps-done"); err != nil {
			return err
		}
		w.I64(int64(s.nextTarget.r.ID))
	}

	return snapshotArrivals(w, &s.arr)
}

// RestoreState replaces the PS server's dynamic state with the checkpoint's.
func (s *PSServer) RestoreState(r *snapshot.R) error {
	s.active = s.active[:0]
	for range r.Len(40) {
		a := s.free.Get()
		*a = psReq{r: workload.RestoreRequest(r), remaining: r.F64()}
		s.active = append(s.active, a)
		if pen := r.I64(); pen != 0 {
			return fmt.Errorf("kernel: ps: %w: request %d has penalty %d", ErrFaultState, a.r.ID, pen)
		}
	}
	restoreRequests(r, &s.pending)
	s.lastUpdate, s.done = sim.Cycles(r.I64()), r.U64()
	if faulted := r.U64(); faulted != 0 {
		return fmt.Errorf("kernel: ps: %w: %d faulted", ErrFaultState, faulted)
	}
	s.finBuf = s.finBuf[:0]
	s.nextEv, s.nextTarget = sim.NoEvent, nil
	if r.Bool() {
		s.nextEv = s.eng.ReadEvent(r, "ps-done", s)
		nextID := r.I64()
		i := slices.IndexFunc(s.active, func(a *psReq) bool { return int64(a.r.ID) == nextID })
		switch {
		case r.Err() != nil:
			return r.Err()
		case i < 0:
			return fmt.Errorf("kernel: ps next-finisher targets unknown request %d", nextID)
		}
		s.nextTarget = s.active[i]
	}
	return s.arr.restoreState(r)
}

// ---- Timeslice ----

// SnapshotState writes the timeslice server's dynamic state.
func (s *TimesliceServer) SnapshotState(w *snapshot.W) error {
	w.Len(s.queue.Len())
	for _, req := range s.queue.Items() {
		req.r.SnapshotState(w)
		w.I64(int64(req.remaining))
	}
	w.U64(uint64(s.busy)).U64(s.done).U64(s.sswaps)

	slices := s.eng.ClaimLive(func(cb sim.Callback) bool {
		v, ok := cb.(*tsSlice)
		return ok && v.s == s
	})
	if err := snapshotArrivals(w, &s.arr); err != nil {
		return err
	}
	w.Len(len(slices))
	for _, ev := range slices {
		e := ev.CB.(*tsSlice)
		w.I64(int64(ev.At)).U64(ev.Seq)
		e.req.r.SnapshotState(w)
		w.I64(int64(e.req.remaining)).I64(int64(e.slice))
	}
	return nil
}

// RestoreState replaces the timeslice server's dynamic state with the
// checkpoint's.
func (s *TimesliceServer) RestoreState(r *snapshot.R) error {
	s.queue.Reset()
	for range r.Len(32) {
		req := s.free.Get()
		*req = tsReq{r: workload.RestoreRequest(r), remaining: sim.Cycles(r.I64())}
		s.queue.Push(req)
	}
	busy := r.U64()
	s.done, s.sswaps = r.U64(), r.U64()
	if err := s.arr.restoreState(r); err != nil {
		return err
	}
	ns := r.Len(56)
	if r.Err() == nil && (busy != uint64(ns) || busy > uint64(s.K)) {
		return fmt.Errorf("kernel: timeslice: %w: %d busy, %d slices, K=%d", ErrBusyCount, busy, ns, s.K)
	}
	s.busy = int(busy)
	for range ns {
		e := s.freeSlices.Get()
		*e = tsSlice{s: s, req: s.free.Get()}
		s.eng.ReadEvent(r, "ts-slice", e)
		*e.req = tsReq{r: workload.RestoreRequest(r)}
		e.req.remaining, e.slice = sim.Cycles(r.I64()), sim.Cycles(r.I64())
	}
	return r.Err()
}

var (
	_ snapshot.Codec = (*FCFSServer)(nil)
	_ snapshot.Codec = (*PSServer)(nil)
	_ snapshot.Codec = (*TimesliceServer)(nil)
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
	k.nextPtid = hwthread.PTID(r.I64())
	k.syscalls, k.unknown, k.reArms = r.U64(), r.U64(), r.U64()
	services, nativeSeq, np := int(r.I64()), int(r.I64()), r.Len(1)
	if r.Err() == nil && (services != k.services || nativeSeq != k.nativeSeq || np != len(k.svcParked)) {
		return fmt.Errorf("kernel: snapshot has %d services / %d natives, live kernel has %d / %d — spawn the same services before restore",
			services, nativeSeq, k.services, k.nativeSeq)
	}
	for i := range np {
		k.svcParked[i] = r.Bool()
	}
	return r.Err()
}
