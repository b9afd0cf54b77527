package monitor

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"nocs/internal/mem"
	"nocs/internal/snapshot"
)

// Checkpoint support (DESIGN.md §13). Waiters are interface values, so the
// machine layer supplies the translation in both directions: id maps a live
// waiter to a stable integer (its ptid, in practice) and waiter maps it back.
// Three pieces of state round-trip:
//
//   - per-waiter watch sets in arm order, plus the waiting/pending flags and
//     the buffered pending write;
//   - per-address waiter lists in global arm order (a write waking several
//     waiters delivers in this order — it is not recoverable from the
//     per-waiter orders alone);
//   - the wakeup counters;
//   - the scheduled-but-undelivered fault injections, in scheduling order.
//     Each is an event on the monitor's shard: writing its record claims the
//     event, and restore re-creates it at its original (cycle, sequence).
//
// The counters keep a slot for evicted watches, from when a per-waiter
// watch budget could evict one. No engine evicts a watch, so the slot is
// written as zero, which keeps NOCSNAP1 bytes unchanged, and a checkpoint
// with a non-zero count is refused with ErrEvictedWatches.

// ErrEvictedWatches reports a monitor section that counts evicted watches.
var ErrEvictedWatches = errors.New("monitor: snapshot counts evicted watches")

// SnapshotState writes the watch sets, per-address arm orders, counters and
// pending fault injections. id translates a live waiter to its stable
// checkpoint id; a waiter it does not know makes the state
// non-checkpointable. Only waiters with armed watches carry state; the rest
// are left out.
func (e *Engine) SnapshotState(w *snapshot.W, id func(Waiter) (int64, bool)) error {
	cid := make([]int64, len(e.ws))
	var armed []int32
	for i := range e.ws {
		s := &e.ws[i]
		if len(s.watches) == 0 {
			continue
		}
		wid, ok := id(s.w)
		if !ok {
			return fmt.Errorf("monitor: waiter %T is not checkpointable", s.w)
		}
		cid[i] = wid
		armed = append(armed, int32(i))
	}
	slices.SortFunc(armed, func(a, b int32) int { return cmp.Compare(cid[a], cid[b]) })
	w.Len(len(armed))
	for _, i := range armed {
		s := &e.ws[i]
		w.I64(cid[i]).Len(len(s.watches))
		for _, x := range s.watches {
			w.I64(x.addr)
		}
		w.Bool(s.waiting).Bool(s.pending)
		w.I64(s.pAddr).I64(s.pVal).U8(uint8(s.pSrc))
	}

	lists := e.byAddr.Sorted()
	lists = slices.DeleteFunc(lists, func(s mem.Slot[*addrList]) bool { return len(s.Val.ids) == 0 })
	w.Len(len(lists))
	for _, s := range lists {
		w.I64(s.Addr).Len(len(s.Val.ids))
		for _, i := range s.Val.ids {
			w.I64(cid[i])
		}
	}

	w.U64(e.wakeups).U64(e.immediate).U64(e.dropped)
	w.U64(0).U64(e.spurious).U64(e.coalesced)

	w.Len(len(e.pending))
	for _, p := range e.pending {
		if err := e.sh.WriteEvent(w, p.h, injName(p.spurious)); err != nil {
			return err
		}
		w.Bool(p.spurious)
		if p.spurious {
			wid, ok := id(p.w)
			if !ok {
				return fmt.Errorf("monitor: pending spurious wake for unknown waiter %T", p.w)
			}
			w.I64(wid)
			continue
		}
		w.Len(len(p.batch))
		for _, wt := range p.batch {
			wid, ok := id(wt)
			if !ok {
				return fmt.Errorf("monitor: pending coalesced wake for unknown waiter %T", wt)
			}
			w.I64(wid)
		}
		w.I64(p.addr).I64(p.val).U8(uint8(p.src))
	}
	return nil
}

// RestoreState replaces the watch sets and counters with the checkpoint's.
// waiter translates a checkpoint id back to the live waiter object. The
// per-address lists must name each armed (waiter, address) pair exactly
// once; lists that do not, and a non-zero evicted-watch count
// (ErrEvictedWatches), are rejected with an error before the engine's watch
// sets change. The shard must be mid-restore (the machine restore
// sequence arranges this) for the pending injections to be re-created.
func (e *Engine) RestoreState(r *snapshot.R, waiter func(int64) (Waiter, error)) error {
	idOf := func(wid int64) (int32, error) {
		wt, err := waiter(wid)
		if err != nil {
			return 0, err
		}
		return e.id(wt), nil
	}
	readWaiter := func() (Waiter, error) {
		wid := r.I64()
		if err := r.Err(); err != nil {
			return nil, err
		}
		return waiter(wid)
	}

	nw := r.Len(8)
	watchers := make(map[int32]watcher, nw)
	armed := 0
	for i := 0; i < nw; i++ {
		wid := r.I64()
		var s watcher
		for _, a := range r.I64s() {
			s.watches = append(s.watches, watch{addr: a}) // lists are linked below
		}
		s.waiting, s.pending = r.Bool(), r.Bool()
		s.pAddr, s.pVal, s.pSrc = r.I64(), r.I64(), mem.WriteSource(r.U8())
		if err := r.Err(); err != nil {
			return err
		}
		id, err := idOf(wid)
		if err != nil {
			return err
		}
		if _, dup := watchers[id]; dup {
			return fmt.Errorf("monitor: duplicate waiter id %d in snapshot", wid)
		}
		if len(s.watches) == 0 && (s.waiting || s.pending) {
			return fmt.Errorf("monitor: waiter id %d waits with no armed address", wid)
		}
		watchers[id] = s
		armed += len(s.watches)
	}

	na := r.Len(12)
	lists := mem.NewTable[*addrList](na)
	listed := 0
	for i := 0; i < na; i++ {
		a := r.I64()
		n := r.Len(8)
		ids := make([]int32, 0, n)
		for j := 0; j < n; j++ {
			wid := r.I64()
			if err := r.Err(); err != nil {
				return err
			}
			id, err := idOf(wid)
			if err != nil {
				return err
			}
			if s, ok := watchers[id]; !ok || !s.armed(a) || slices.Contains(ids, id) {
				return fmt.Errorf("monitor: snapshot lists waiter id %d on %#x, which it has not armed", wid, a)
			}
			ids = append(ids, id)
		}
		if n == 0 {
			continue
		}
		if lists.Get(a) != nil {
			return fmt.Errorf("monitor: address %#x listed twice in snapshot", a)
		}
		lists.Set(a, &addrList{ids: ids})
		listed += n
	}
	// Every listed pair is distinct and armed, so equal counts mean the lists
	// cover the watch sets exactly.
	if err := r.Err(); err != nil {
		return err
	}
	if listed != armed {
		return fmt.Errorf("monitor: snapshot arms %d watches but lists %d", armed, listed)
	}
	wakeups, immediate, dropped := r.U64(), r.U64(), r.U64()
	if evicted := r.U64(); evicted != 0 {
		return fmt.Errorf("%w: %d", ErrEvictedWatches, evicted)
	}

	// A fresh table and watch sets: no watcher may keep a pointer to a list
	// of the replaced table.
	e.byAddr = lists
	for i := range e.ws {
		e.ws[i] = watcher{w: e.ws[i].w}
	}
	for id, s := range watchers {
		s.w = e.ws[id].w
		for k := range s.watches {
			s.watches[k].list = e.byAddr.Get(s.watches[k].addr)
		}
		e.ws[id] = s
	}

	e.wakeups, e.immediate, e.dropped = wakeups, immediate, dropped
	e.spurious, e.coalesced = r.U64(), r.U64()

	n := r.Len(17)
	if n > 0 && e.sh == nil {
		return fmt.Errorf("monitor: snapshot has %d pending fault injections, live monitor has no fault plan (arm the same WithFaultPlan)", n)
	}
	e.pending = nil
	for range n {
		p := &pendingInj{e: e}
		h := e.sh.ReadEvent(r, evCoalescedWake, p)
		p.spurious = r.Bool()
		var err error
		if p.spurious {
			e.sh.Rename(h, evSpuriousWake)
			p.w, err = readWaiter()
		} else {
			p.batch = make([]Waiter, r.Len(8))
			for j := 0; j < len(p.batch) && err == nil; j++ {
				p.batch[j], err = readWaiter()
			}
			p.addr, p.val, p.src = r.I64(), r.I64(), mem.WriteSource(r.U8())
		}
		if err != nil {
			return err
		}
		if r.Err() != nil {
			return r.Err()
		}
		p.h = h
		e.pending = append(e.pending, p)
	}
	return r.Err()
}

// injName names a pending fault injection's event.
func injName(spurious bool) string {
	if spurious {
		return evSpuriousWake
	}
	return evCoalescedWake
}
