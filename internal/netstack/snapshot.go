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
// The stack implements snapshot.Codec; attach it with
// m.AttachSnapshotter("netstack", shard, stack) on both the snapshot and the
// restore machine. The restore target must have bound the same ports in the
// same order. The SendAsync outbox pump is a tracked stack event, so a sender
// caught mid-backoff checkpoints and replays exactly.

// SnapshotState writes the stack's dynamic state.
func (s *Stack) SnapshotState(w *snapshot.W) error {
	w.I64(s.rxHead).I64(s.txSeq)
	w.U64(s.received).U64(s.dropNoSock).U64(s.dropMalform).U64(s.backpressure)
	w.U64(s.sent).U64(s.sendBusy).U64(s.svcFaults)
	w.I64(s.staged).U64(s.txQueued).U64(s.pumpStall)
	w.Len(s.outbox.Len())
	for _, p := range s.outbox.Items() {
		w.I64s(p)
	}
	w.Len(len(s.order))
	for _, sock := range s.order {
		// The 0 is a retired per-socket drop count: backpressure lost none.
		w.I64(sock.Port).I64(sock.delivered).I64(sock.nacks).I64(0).Bool(sock.blocked)
	}

	type evRec struct {
		at  sim.Cycles
		seq uint64
		e   *stackEv
	}
	evs := make([]evRec, 0, len(s.live))
	for _, e := range s.live {
		at, seq, ok := s.k.Core().Shard().Claim(e.h)
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
		// The two zeros are the retired second back-off's address and cap.
		w.I64(int64(r.at)).U64(r.seq).U8(r.e.kind).I64(int64(r.e.sock)).I64(r.e.val)
		w.I64(0).I64(int64(r.e.wait)).I64(0)
	}
	return nil
}

// RestoreState replaces the stack's dynamic state with the checkpoint's. The
// engine must be mid-restore (the machine restore sequence arranges this).
func (s *Stack) RestoreState(r *snapshot.R) error {
	s.rxHead, s.txSeq = r.I64(), r.I64()
	s.received, s.dropNoSock, s.dropMalform, s.backpressure = r.U64(), r.U64(), r.U64(), r.U64()
	s.sent, s.sendBusy, s.svcFaults = r.U64(), r.U64(), r.U64()
	s.staged, s.txQueued, s.pumpStall = r.I64(), r.U64(), r.U64()
	s.outbox.Reset()
	for range r.Len(4) {
		s.outbox.Push(r.I64s())
	}
	nSock := r.Len(33)
	if r.Err() == nil && nSock != len(s.order) {
		return fmt.Errorf("netstack: snapshot has %d sockets, live stack has %d — bind the same ports before restore", nSock, len(s.order))
	}
	for i := range nSock {
		sock := s.order[i]
		port := r.I64()
		sock.delivered, sock.nacks = r.I64(), r.I64()
		r.I64() // retired drop count
		sock.blocked = r.Bool()
		if r.Err() == nil && port != sock.Port {
			return fmt.Errorf("netstack: snapshot socket %d is port %d, live stack has port %d", i, port, sock.Port)
		}
	}
	for _, e := range s.live {
		s.free.Put(e)
	}
	s.live = s.live[:0]
	sh := s.k.Core().Shard()
	for range r.Len(57) {
		e := s.free.Get()
		*e = stackEv{st: s, idx: len(s.live)}
		h := sh.ReadEvent(r, "netstack", e)
		e.kind, e.sock, e.val = r.U8(), int(r.I64()), r.I64()
		r.I64() // retired back-off address
		e.wait = sim.Cycles(r.I64())
		r.I64() // retired back-off cap
		if r.Err() != nil {
			return r.Err()
		}
		if int(e.kind) >= len(stackEvNames) || stackEvNames[e.kind] == "" {
			return fmt.Errorf("netstack: snapshot event has unknown kind %d", e.kind)
		}
		if e.kind == evSockRx && (e.sock < 0 || e.sock >= len(s.order)) {
			return fmt.Errorf("netstack: snapshot doorbell event for unknown socket %d", e.sock)
		}
		sh.Rename(h, stackEvNames[e.kind])
		e.h = h
		s.live = append(s.live, e)
	}
	return r.Err()
}
