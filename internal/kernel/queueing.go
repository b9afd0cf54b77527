// Package kernel implements the two operating-system personalities compared
// throughout the paper, plus the queueing-level server models used by the
// tail-latency experiments:
//
//   - Legacy: a conventional kernel. Syscalls are in-thread privilege-mode
//     switches, I/O is interrupt-driven, and software threads are
//     multiplexed onto the few OS-visible hardware threads by a scheduler
//     that pays context-switch costs. A FlexSC-style asynchronous syscall
//     mode is included as the strongest software-only baseline.
//   - Nocs: the paper's kernel. Every kernel service is a dedicated
//     hardware thread blocked in monitor/mwait; syscalls and faults are
//     exception descriptors; I/O threads wake on device queue-tail writes;
//     servers run thread-per-request on hardware threads.
//
// The queueing servers in this file model request service disciplines
// exactly (event-driven, deterministic): FCFS run-to-completion (IX/ZygOS
// style), fluid processor sharing (the hardware RR of §4), and software
// timeslicing with per-switch costs (the legacy preemptive alternative).
// They are validated in the tests against M/M/1 and M/G/1 theory.
package kernel

import (
	"cmp"
	"math"
	"slices"
	"strconv"

	"nocs/internal/sim"
	"nocs/internal/trace"
	"nocs/internal/workload"
)

// arrival is one queued open-loop arrival: the request plus the engine
// sequence number reserved for it at submission. Its event key is
// (r.Arrival, seq).
type arrival struct {
	seq uint64
	r   workload.Request
}

func compareArrivals(a, b arrival) int {
	if c := cmp.Compare(a.r.Arrival, b.r.Arrival); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// arrivalSink is the server side of an arrival stream: arrive runs when a
// request's arrival event fires.
type arrivalSink interface {
	arrive(r workload.Request)
}

// RequestSource yields an open-loop request train one request at a time, in
// nondecreasing arrival order. *workload.Source is one.
type RequestSource interface {
	Next() workload.Request
}

// arrivals is a queueing server's open-loop arrival stream. Queued requests
// wait in one queue sorted by (arrival time, reserved seq), and only a
// prefix of it — normally just the head — sits in the engine's heap, each
// entry under the key it would have had if it had been scheduled at
// submission (sim.Engine.ReserveSeqs). When the head fires it arms the next
// entry and then delivers its request, so the dispatch order, Ran and the
// batch horizon match scheduling every arrival up front.
//
// A request train attached with stream is not queued at all: it holds one
// drawn request in the queue and draws the next when that one fires, under
// the next of the sequence numbers it reserved when attached, so a
// 40k-request train costs one queue entry and one heap entry.
type arrivals struct {
	eng  *sim.Shard
	name string
	sink arrivalSink
	q    []arrival
	head int
	// armed counts the entries q[head:head+armed] that are in the heap.
	armed int
	// src is the attached train while it has requests left to draw: left
	// of them, the next under sequence number seq.
	src  RequestSource
	left int
	seq  uint64
}

// add queues r under a freshly reserved sequence number.
func (a *arrivals) add(r workload.Request) {
	a.insert(arrival{seq: a.eng.ReserveSeqs(1), r: r})
}

// stream attaches a train of n requests drawn from src. It panics if a train
// is already attached.
func (a *arrivals) stream(src RequestSource, n int) {
	if a.src != nil {
		panic("kernel: a request train is already streaming into " + a.name)
	}
	if n > 0 {
		a.src, a.left, a.seq = src, n, a.eng.ReserveSeqs(n)
		a.pull()
	}
}

// pull draws the train's next request and queues it under its reserved
// sequence number.
func (a *arrivals) pull() {
	a.insert(arrival{seq: a.seq, r: a.src.Next()})
	a.seq++
	a.left--
	if a.left == 0 {
		a.src = nil
	}
}

// insert sorts e into the queue. It arms e if the queue was empty or e sorts
// ahead of an entry already in the heap, which keeps the armed entries a
// prefix of the queue. In-order entries (every Source train, every serve
// submission) are a plain append.
func (a *arrivals) insert(e arrival) {
	if len(a.q) == cap(a.q) && a.head > 0 {
		a.q = a.q[:copy(a.q, a.q[a.head:])]
		a.head = 0
	}
	a.q = append(a.q, e)
	i := len(a.q) - 1
	for ; i > a.head && compareArrivals(a.q[i-1], e) > 0; i-- {
		a.q[i] = a.q[i-1]
	}
	a.q[i] = e
	if a.armed == 0 || i < a.head+a.armed {
		a.arm(i)
	}
}

func (a *arrivals) arm(i int) {
	a.eng.AtSeq(a.q[i].r.Arrival, a.q[i].seq, a.name, a)
	a.armed++
}

// OnEvent delivers the head arrival (sim.Callback): the head's key is the
// smallest armed one, so it is always the event that fired. If it was the
// train's drawn request, the train draws its next one, after the queue has
// been reset or its new head armed.
func (a *arrivals) OnEvent() {
	e := a.q[a.head]
	a.head++
	a.armed--
	if a.head == len(a.q) {
		a.q, a.head = a.q[:0], 0
	} else if a.armed == 0 {
		a.arm(a.head)
	}
	if a.src != nil && e.seq == a.seq-1 {
		a.pull()
	}
	a.sink.arrive(e.r)
}

// laneSet places request spans onto "req-lane-N" tracks. Requests overlap
// freely inside a queueing server, but spans on one Chrome-trace track must
// nest, so each span goes to the first lane whose previous span has already
// finished (greedy first-fit); a new lane is opened only when every existing
// lane is busy. Spans arrive in completion order, not start order, so the
// lane count can slightly exceed the peak span concurrency — analyses should
// sweep the spans themselves, not count lanes.
type laneSet struct {
	tr      *trace.Tracer
	process string
	lanes   []trace.TrackID
	busy    []int64 // per-lane finish time of the last span placed
}

func (l *laneSet) span(name, arg string, start, finish int64) {
	if l == nil {
		return
	}
	lane := -1
	for i, b := range l.busy {
		if b <= start {
			lane = i
			break
		}
	}
	if lane < 0 {
		lane = len(l.lanes)
		l.lanes = append(l.lanes, l.tr.NewTrack(l.process, "req-lane-"+strconv.Itoa(lane)))
		l.busy = append(l.busy, 0)
	}
	l.busy[lane] = finish
	l.tr.CompleteArg(l.lanes[lane], name, arg, start, finish-start)
}

// Completion reports one finished request.
type Completion struct {
	Req    workload.Request
	Finish sim.Cycles
	// Latency is finish - arrival (sojourn time).
	Latency sim.Cycles
}

// QueueServer is a request service discipline running on the event engine.
type QueueServer interface {
	// Submit queues a request's arrival (Req.Arrival must be ≥ now).
	Submit(r workload.Request)
	// Name identifies the discipline in reports.
	Name() string
	// feed returns the server's arrival stream and OnComplete field, so
	// RunStream can attach a request train to any discipline and chain its
	// collector on.
	feed() (*arrivals, *func(Completion))
}

// FCFSServer is run-to-completion first-come-first-served on K servers —
// the dataplane-OS baseline. Each dispatch pays Overhead cycles (interrupt
// delivery, scheduler, context switch) before service.
type FCFSServer struct {
	eng        *sim.Shard
	K          int
	Overhead   sim.Cycles
	OnComplete func(Completion)

	arr   arrivals
	queue sim.Ring[workload.Request]
	busy  int
	done  uint64
	lanes *laneSet
	// free recycles completion-event bodies: at most K are in flight, so the
	// steady state schedules completions with zero allocations.
	free sim.FreeList[fcfsDone]
}

// fcfsDone is a completion event body: one per busy server.
type fcfsDone struct {
	s     *FCFSServer
	r     workload.Request
	total sim.Cycles // charged service time, overhead included
}

// NewFCFS builds an FCFS server pool.
func NewFCFS(eng *sim.Shard, k int, overhead sim.Cycles, onComplete func(Completion)) *FCFSServer {
	if k < 1 {
		k = 1
	}
	s := &FCFSServer{eng: eng, K: k, Overhead: overhead, OnComplete: onComplete}
	s.arr = arrivals{eng: eng, name: "fcfs-arrival", sink: s}
	return s
}

// Name identifies the discipline.
func (s *FCFSServer) Name() string { return "legacy-fcfs" }

// EnableTrace records one service span per request (dispatch through
// completion, overhead included) on greedy lanes under process. With K
// servers at most K lanes ever open.
func (s *FCFSServer) EnableTrace(tr *trace.Tracer, process string) {
	if tr.Enabled() {
		s.lanes = &laneSet{tr: tr, process: process}
	}
}

// Submit queues the arrival on the server's arrival stream.
func (s *FCFSServer) Submit(r workload.Request) { s.arr.add(r) }

func (s *FCFSServer) feed() (*arrivals, *func(Completion)) { return &s.arr, &s.OnComplete }

func (s *FCFSServer) arrive(r workload.Request) {
	s.queue.Push(r)
	s.dispatch()
}

func (s *FCFSServer) dispatch() {
	for s.busy < s.K && s.queue.Len() > 0 {
		r := s.queue.Pop()
		s.busy++
		d := s.free.Get()
		d.s, d.r, d.total = s, r, s.Overhead+r.Demand
		s.eng.AfterCallback(d.total, "fcfs-done", d)
	}
}

func (d *fcfsDone) OnEvent() {
	s := d.s
	s.busy--
	s.done++
	if s.lanes != nil {
		now := int64(s.eng.Now())
		s.lanes.span("service", "req"+strconv.Itoa(d.r.ID), now-int64(d.total), now)
	}
	comp := Completion{Req: d.r, Finish: s.eng.Now(), Latency: s.eng.Now() - d.r.Arrival}
	s.free.Put(d)
	if s.OnComplete != nil {
		s.OnComplete(comp)
	}
	s.dispatch()
}

// PSServer is fluid processor sharing with capacity C: with n active
// requests each runs at rate min(1, C/n). This is the discipline the
// paper's hardware RR emulates (§4: "execute runnable hardware threads in a
// fine-grain, round-robin manner, which emulates processor sharing").
// Each request pays Overhead once at arrival — for the nocs personality this
// is the hardware-thread start latency (tens of cycles), not a context
// switch.
type PSServer struct {
	eng        *sim.Shard
	C          int
	Overhead   sim.Cycles
	OnComplete func(Completion)
	// MaxActive caps concurrent in-service requests (0 = unlimited). This
	// models a finite hardware-thread pool: arrivals beyond the cap queue
	// FCFS until a thread frees up (ablation A1).
	MaxActive int

	arr        arrivals
	active     []*psReq
	pending    sim.Ring[workload.Request]
	lastUpdate sim.Cycles
	nextEv     sim.Handle
	nextTarget *psReq
	done       uint64
	// free recycles psReq bodies; finBuf is the reused simultaneous-finisher
	// buffer (replaces a fresh slice + sort.Slice closure per completion).
	free   sim.FreeList[psReq]
	finBuf []*psReq

	lanes    *laneSet
	tr       *trace.Tracer
	activeTk trace.TrackID
}

type psReq struct {
	r         workload.Request
	remaining float64
}

// NewPS builds a processor-sharing server of capacity c.
func NewPS(eng *sim.Shard, c int, overhead sim.Cycles, onComplete func(Completion)) *PSServer {
	if c < 1 {
		c = 1
	}
	s := &PSServer{eng: eng, C: c, Overhead: overhead, OnComplete: onComplete}
	s.arr = arrivals{eng: eng, name: "ps-arrival", sink: s}
	return s
}

// Name identifies the discipline.
func (s *PSServer) Name() string { return "nocs-ps" }

// EnableTrace records one sojourn span per request (arrival through
// completion) on greedy lanes under process, plus an "active" counter. Under
// overload the sojourn spans stack deeper than C — visibly interleaved
// service, where FCFS lanes would cap at K.
func (s *PSServer) EnableTrace(tr *trace.Tracer, process string) {
	if tr.Enabled() {
		s.lanes = &laneSet{tr: tr, process: process}
		s.tr = tr
		s.activeTk = tr.NewTrack(process, "active")
	}
}

func (s *PSServer) traceActive() {
	s.tr.Count(s.activeTk, "active", int64(s.eng.Now()), int64(len(s.active)))
}

// Submit queues the arrival on the server's arrival stream.
func (s *PSServer) Submit(r workload.Request) { s.arr.add(r) }

func (s *PSServer) feed() (*arrivals, *func(Completion)) { return &s.arr, &s.OnComplete }

// arrive is the arrival-event body.
func (s *PSServer) arrive(r workload.Request) {
	s.advance()
	if s.MaxActive > 0 && len(s.active) >= s.MaxActive {
		s.pending.Push(r)
		return
	}
	s.admit(r)
	s.traceActive()
	s.reschedule()
}

func (s *PSServer) admit(r workload.Request) {
	a := s.free.Get()
	*a = psReq{r: r, remaining: float64(s.Overhead + r.Demand)}
	s.active = append(s.active, a)
}

// rate returns the current per-request service rate.
func (s *PSServer) rate() float64 {
	n := len(s.active)
	if n == 0 {
		return 0
	}
	if n <= s.C {
		return 1
	}
	return float64(s.C) / float64(n)
}

// advance drains elapsed virtual work since the last update.
func (s *PSServer) advance() {
	now := s.eng.Now()
	elapsed := float64(now - s.lastUpdate)
	s.lastUpdate = now
	if elapsed <= 0 || len(s.active) == 0 {
		return
	}
	r := s.rate()
	for _, a := range s.active {
		a.remaining -= elapsed * r
	}
}

// reschedule finds the next completion and arms a single event for it.
func (s *PSServer) reschedule() {
	if s.nextEv != sim.NoEvent {
		s.eng.Cancel(s.nextEv)
		s.nextEv = sim.NoEvent
	}
	if len(s.active) == 0 {
		return
	}
	// Smallest remaining completes first; ties break on lower ID for
	// determinism.
	var min *psReq
	for _, a := range s.active {
		if min == nil || a.remaining < min.remaining ||
			(a.remaining == min.remaining && a.r.ID < min.r.ID) {
			min = a
		}
	}
	r := s.rate()
	wait := sim.Cycles(math.Ceil(math.Max(0, min.remaining) / r))
	s.nextTarget = min
	s.nextEv = s.eng.AfterCallback(wait, "ps-done", s)
}

// OnEvent completes the armed next-finisher (sim.Callback: the server is its
// own completion-event body, so the steady state allocates no closures).
func (s *PSServer) OnEvent() {
	target := s.nextTarget
	s.nextEv = sim.NoEvent
	s.nextTarget = nil
	s.advance()
	// Complete everything at or below zero (simultaneous finishers),
	// removing them from the active set in place. Collect first and sort by
	// ID: completion order depends on request identity, never on where a
	// request sits in the active set.
	finished := s.finBuf[:0]
	kept := s.active[:0]
	for _, a := range s.active {
		if a.remaining <= 1e-9 || a == target {
			finished = append(finished, a)
			continue
		}
		kept = append(kept, a)
	}
	clear(s.active[len(kept):])
	s.active = kept
	s.finBuf = finished
	// Insertion sort by ID (IDs unique, so the order matches what sort.Slice
	// produced) on the reused buffer: no comparator closure, no allocation.
	for i := 1; i < len(finished); i++ {
		a := finished[i]
		j := i - 1
		for j >= 0 && finished[j].r.ID > a.r.ID {
			finished[j+1] = finished[j]
			j--
		}
		finished[j+1] = a
	}
	for _, a := range finished {
		s.done++
		if s.lanes != nil {
			s.lanes.span("sojourn", "req"+strconv.Itoa(a.r.ID),
				int64(a.r.Arrival), int64(s.eng.Now()))
		}
		comp := Completion{Req: a.r, Finish: s.eng.Now(), Latency: s.eng.Now() - a.r.Arrival}
		s.free.Put(a)
		if s.OnComplete != nil {
			s.OnComplete(comp)
		}
	}
	// Admit queued arrivals into freed hardware threads.
	for s.pending.Len() > 0 && (s.MaxActive <= 0 || len(s.active) < s.MaxActive) {
		s.admit(s.pending.Pop())
	}
	s.traceActive()
	s.reschedule()
}

// TimesliceServer is the legacy preemptive alternative: K servers running a
// software scheduler with a fixed Quantum; every quantum boundary that
// switches between different requests pays SwitchCost (register save/restore
// plus scheduler, §1). As Quantum → 0 it approaches PS but the switch
// overhead dominates; as Quantum → ∞ it degenerates to FCFS.
type TimesliceServer struct {
	eng        *sim.Shard
	K          int
	Quantum    sim.Cycles
	SwitchCost sim.Cycles
	OnComplete func(Completion)

	arr    arrivals
	queue  sim.Ring[*tsReq]
	busy   int
	done   uint64
	sswaps uint64
	lanes  *laneSet
	// free recycles tsReq bodies and freeSlices slice-event bodies (at most
	// K in flight), so steady-state timeslicing allocates nothing.
	free       sim.FreeList[tsReq]
	freeSlices sim.FreeList[tsSlice]
}

type tsReq struct {
	r         workload.Request
	remaining sim.Cycles
}

// tsSlice is a quantum-expiry event body: one per busy server.
type tsSlice struct {
	s     *TimesliceServer
	req   *tsReq
	slice sim.Cycles
}

// NewTimeslice builds a preemptive timeslicing server pool.
func NewTimeslice(eng *sim.Shard, k int, quantum, switchCost sim.Cycles, onComplete func(Completion)) *TimesliceServer {
	if k < 1 {
		k = 1
	}
	if quantum < 1 {
		quantum = 1
	}
	s := &TimesliceServer{eng: eng, K: k, Quantum: quantum, SwitchCost: switchCost, OnComplete: onComplete}
	s.arr = arrivals{eng: eng, name: "ts-arrival", sink: s}
	return s
}

// Name identifies the discipline.
func (s *TimesliceServer) Name() string { return "legacy-timeslice" }

// EnableTrace records one span per quantum (switch cost included) on greedy
// lanes under process, exposing the preemption pattern: a long request shows
// as a row of slices with other requests' slices interleaved between them.
func (s *TimesliceServer) EnableTrace(tr *trace.Tracer, process string) {
	if tr.Enabled() {
		s.lanes = &laneSet{tr: tr, process: process}
	}
}

// Submit queues the arrival on the server's arrival stream.
func (s *TimesliceServer) Submit(r workload.Request) { s.arr.add(r) }

func (s *TimesliceServer) feed() (*arrivals, *func(Completion)) { return &s.arr, &s.OnComplete }

func (s *TimesliceServer) arrive(r workload.Request) {
	req := s.free.Get()
	*req = tsReq{r: r, remaining: r.Demand}
	s.queue.Push(req)
	s.dispatch()
}

func (s *TimesliceServer) dispatch() {
	for s.busy < s.K && s.queue.Len() > 0 {
		req := s.queue.Pop()
		s.busy++
		s.runSlice(req)
	}
}

func (s *TimesliceServer) runSlice(req *tsReq) {
	slice := req.remaining
	if slice > s.Quantum {
		slice = s.Quantum
	}
	// Every dispatch pays the switch (the previous context must be saved
	// and this one restored — in the legacy world this is a software
	// context switch even when resuming the same request after others ran).
	s.sswaps++
	ev := s.freeSlices.Get()
	*ev = tsSlice{s: s, req: req, slice: slice}
	s.eng.AfterCallback(s.SwitchCost+slice, "ts-slice", ev)
}

func (e *tsSlice) OnEvent() {
	s := e.s
	req, slice := e.req, e.slice
	e.req = nil
	s.freeSlices.Put(e)
	if s.lanes != nil {
		now := int64(s.eng.Now())
		s.lanes.span("slice", "req"+strconv.Itoa(req.r.ID), now-int64(s.SwitchCost+slice), now)
	}
	req.remaining -= slice
	s.busy--
	if req.remaining <= 0 {
		s.done++
		comp := Completion{Req: req.r, Finish: s.eng.Now(), Latency: s.eng.Now() - req.r.Arrival}
		s.free.Put(req)
		if s.OnComplete != nil {
			s.OnComplete(comp)
		}
	} else {
		s.queue.Push(req)
	}
	s.dispatch()
}

// RunStream feeds srv a train of n requests drawn from src, runs the engine
// to completion and hands each completion to record, in finish order, after
// srv's own OnComplete. Only one request of the train is held at a time: the
// train reserves n engine sequence numbers when it is attached and draws
// request i, under the i-th, when request i-1's arrival fires, so every
// arrival keeps the (time, seq) key it would have had if the whole train had
// been submitted up front. src must yield no arrival before the engine's
// clock or before its previous one (scheduling in the past panics).
func RunStream(eng *sim.Shard, srv QueueServer, src RequestSource, n int, record func(Completion)) {
	arr, cb := srv.feed()
	prev := *cb
	*cb = func(c Completion) {
		if prev != nil {
			prev(c)
		}
		record(c)
	}
	defer func() { *cb = prev }()
	arr.stream(src, n)
	eng.Run(0)
}

// RunOpenLoop runs reqs through srv as one RunStream train and returns the
// completions in finish order. Requests may come in any order: they arrive
// sorted by arrival time, requests on one cycle in their order in reqs.
func RunOpenLoop(eng *sim.Shard, srv QueueServer, reqs []workload.Request) []Completion {
	byArrival := func(a, b workload.Request) int { return cmp.Compare(a.Arrival, b.Arrival) }
	if !slices.IsSortedFunc(reqs, byArrival) {
		reqs = slices.Clone(reqs)
		slices.SortStableFunc(reqs, byArrival)
	}
	out := make([]Completion, 0, len(reqs))
	RunStream(eng, srv, &sliceSource{reqs}, len(reqs), func(c Completion) { out = append(out, c) })
	return out
}

// sliceSource streams a materialized request train.
type sliceSource struct{ reqs []workload.Request }

func (s *sliceSource) Next() workload.Request {
	r := s.reqs[0]
	s.reqs = s.reqs[1:]
	return r
}
