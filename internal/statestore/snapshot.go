package statestore

import (
	"fmt"
	"sort"

	"nocs/internal/sim"
	"nocs/internal/snapshot"
)

// Checkpoint support (DESIGN.md §13). Placement is timing-visible — which
// tier a thread's state lives in decides its next start latency, and LRU
// timestamps decide who gets demoted — so entries round-trip exactly. The
// fault injector is machine-owned and checkpointed separately.

// SnapshotState writes every entry (sorted by id), tier occupancy, and the
// cumulative counters. It cannot fail: the store owns no events.
func (s *Store) SnapshotState(w *snapshot.W) error {
	ids := make([]int, 0, len(s.entries))
	for id := range s.entries {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	w.Len(len(ids))
	for _, id := range ids {
		e := s.entries[id]
		w.I64(int64(e.id)).I64(int64(e.bytes)).U8(uint8(e.tier))
		w.I64(int64(e.lastUse)).I64(int64(e.prefetchReady)).Bool(e.pinned)
	}
	w.U64(s.promotions).U64(s.demotions).U64(s.prefetches)
	w.U64(s.prefetchHits).U64(s.dramStarts)
	w.U64(s.xferRetries).U64(s.tierFallbacks)
	return nil
}

// RestoreState replaces the store's entries and counters with the
// checkpoint's, recomputing tier occupancy. Entries must be in strictly
// increasing id order, the only order SnapshotState writes, so one id
// cannot be counted twice in the occupancy.
func (s *Store) RestoreState(r *snapshot.R) error {
	for _, e := range s.entries {
		s.free.Put(e)
	}
	clear(s.entries)
	s.used = [numTiers]int{}
	prev := 0
	for i := range r.Len(20) {
		e := s.free.Get()
		*e = entry{id: int(r.I64()), bytes: int(r.I64()), tier: Tier(r.U8())}
		e.lastUse, e.prefetchReady, e.pinned = sim.Cycles(r.I64()), sim.Cycles(r.I64()), r.Bool()
		switch {
		case r.Err() != nil:
			return r.Err()
		case e.tier < TierRF || e.tier >= numTiers:
			return fmt.Errorf("statestore: snapshot entry %d has invalid tier %d", e.id, e.tier)
		case i > 0 && e.id <= prev:
			return fmt.Errorf("statestore: snapshot entry %d follows entry %d, not in increasing id order", e.id, prev)
		}
		prev = e.id
		s.entries[e.id] = e
		s.used[e.tier] += e.bytes
	}
	s.promotions, s.demotions = r.U64(), r.U64()
	s.prefetches, s.prefetchHits, s.dramStarts = r.U64(), r.U64(), r.U64()
	s.xferRetries, s.tierFallbacks = r.U64(), r.U64()
	return r.Err()
}
