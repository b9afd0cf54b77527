package netstack

import (
	"fmt"
	"sort"

	"nocs/internal/sim"
	"nocs/internal/snapshot"
)

// Checkpoint support (DESIGN.md §13). The stack serializes its RX cursor,
// counters, per-socket ring state (delivered/consumed live in memory and are
// captured by the memory codec; the Go-side mirror here is the authoritative
// delivered count, NACK count, and the blocked flag driving the dynamic
// watch set), and every in-flight delayed doorbell publish. The service
// thread itself — registers, parked-in-mwait state, armed watches — is
// ordinary hardware-thread state captured by the core and monitor codecs.
//
// The stack implements machine.ComponentSnapshotter; attach it with
// m.AttachSnapshotter("netstack", shard, stack) on both the snapshot and the
// restore machine. The restore target must have bound the same ports in the
// same order. SendWithRetry backoffs and the SendAsync outbox pump are
// tracked stack events, so a sender caught mid-backoff checkpoints and
// replays exactly.

// SnapshotState writes the stack's dynamic state.
func (s *Stack) SnapshotState(w *snapshot.W) error {
	w.I64(s.rxHead).I64(s.txSeq)
	w.U64(s.received).U64(s.dropNoSock).U64(s.dropMalform).U64(s.backpressure)
	w.U64(s.sent).U64(s.sendBusy).U64(s.svcFaults)
	w.I64(s.staged).U64(s.txQueued).U64(s.pumpStall)
	w.Len(len(s.outbox))
	for _, p := range s.outbox {
		w.I64s(p)
	}
	w.Len(len(s.order))
	for _, sock := range s.order {
		w.I64(sock.Port).I64(sock.delivered).I64(sock.nacks).I64(sock.drops).Bool(sock.blocked)
	}

	type evRec struct {
		at  sim.Cycles
		seq uint64
		e   *stackEv
	}
	evs := make([]evRec, 0, len(s.live))
	for _, e := range s.live {
		at, seq, ok := s.k.Core().Shard().EventInfo(e.h)
		if !ok {
			return fmt.Errorf("netstack: in-flight doorbell event handle is stale at checkpoint")
		}
		evs = append(evs, evRec{at, seq, e})
	}
	// The live list is swap-removal ordered; serialize in (cycle, sequence)
	// order so equal states give identical bytes.
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].seq < evs[j].seq
	})
	w.Len(len(evs))
	for _, r := range evs {
		w.I64(int64(r.at)).U64(r.seq).U8(r.e.kind).I64(int64(r.e.sock)).I64(r.e.val)
		w.I64(r.e.addr).I64(int64(r.e.wait)).I64(int64(r.e.max))
	}
	return nil
}

// RestoreState replaces the stack's dynamic state with the checkpoint's. The
// engine must be mid-restore (the machine restore sequence arranges this).
func (s *Stack) RestoreState(r *snapshot.R) error {
	rxHead, txSeq := r.I64(), r.I64()
	received, dropNoSock, dropMalform, backpressure := r.U64(), r.U64(), r.U64(), r.U64()
	sent, sendBusy, svcFaults := r.U64(), r.U64(), r.U64()
	staged, txQueued, pumpStall := r.I64(), r.U64(), r.U64()
	nOut := r.Len(4)
	outbox := make([][]int64, 0, nOut)
	for i := 0; i < nOut; i++ {
		outbox = append(outbox, r.I64s())
	}
	if len(outbox) == 0 {
		outbox = nil
	}
	nSock := r.Len(33)
	type sockRec struct {
		port, delivered, nacks, drops int64
		blocked                       bool
	}
	socks := make([]sockRec, nSock)
	for i := range socks {
		socks[i] = sockRec{r.I64(), r.I64(), r.I64(), r.I64(), r.Bool()}
	}
	nEv := r.Len(57)
	type evRec struct {
		at   sim.Cycles
		seq  uint64
		kind uint8
		sock int64
		val  int64
		addr int64
		wait sim.Cycles
		max  sim.Cycles
	}
	evs := make([]evRec, nEv)
	for i := range evs {
		evs[i] = evRec{sim.Cycles(r.I64()), r.U64(), r.U8(), r.I64(), r.I64(),
			r.I64(), sim.Cycles(r.I64()), sim.Cycles(r.I64())}
	}
	if err := r.Err(); err != nil {
		return err
	}

	if nSock != len(s.order) {
		return fmt.Errorf("netstack: snapshot has %d sockets, live stack has %d — bind the same ports before restore", nSock, len(s.order))
	}
	for i, rec := range socks {
		if rec.port != s.order[i].Port {
			return fmt.Errorf("netstack: snapshot socket %d is port %d, live stack has port %d", i, rec.port, s.order[i].Port)
		}
	}
	for _, e := range evs {
		if e.kind == evSockRx && (e.sock < 0 || e.sock >= int64(len(s.order))) {
			return fmt.Errorf("netstack: snapshot doorbell event for unknown socket %d", e.sock)
		}
	}

	s.rxHead, s.txSeq = rxHead, txSeq
	s.received, s.dropNoSock, s.dropMalform, s.backpressure = received, dropNoSock, dropMalform, backpressure
	s.sent, s.sendBusy, s.svcFaults = sent, sendBusy, svcFaults
	s.staged, s.txQueued, s.pumpStall = staged, txQueued, pumpStall
	s.outbox = outbox
	for i, rec := range socks {
		sock := s.order[i]
		sock.delivered, sock.nacks, sock.drops, sock.blocked = rec.delivered, rec.nacks, rec.drops, rec.blocked
	}
	s.live = s.live[:0]
	sh := s.k.Core().Shard()
	for _, rec := range evs {
		if int(rec.kind) >= len(stackEvNames) {
			return fmt.Errorf("netstack: snapshot event has unknown kind %d", rec.kind)
		}
		e := &stackEv{st: s, idx: len(s.live), kind: rec.kind, sock: int(rec.sock),
			val: rec.val, addr: rec.addr, wait: rec.wait, max: rec.max}
		e.h = sh.AtSeq(rec.at, rec.seq, stackEvNames[rec.kind], e)
		s.live = append(s.live, e)
	}
	return nil
}

// LiveHandles lists the stack's queued events for the engine's claimed set.
func (s *Stack) LiveHandles() []sim.Handle {
	hs := make([]sim.Handle, 0, len(s.live))
	for _, e := range s.live {
		hs = append(hs, e.h)
	}
	return hs
}
