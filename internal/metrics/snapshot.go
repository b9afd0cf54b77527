package metrics

import "nocs/internal/snapshot"

// Checkpoint support (DESIGN.md §13). A histogram's dynamic state is the
// bucket array plus the running aggregates. The bucket slice is serialized
// at its grown length — growth is deterministic in the record sequence, so
// a restored histogram re-snapshots byte-identically.

// SnapshotState writes the histogram's dynamic state.
func (h *Histogram) SnapshotState(w *snapshot.W) {
	w.Len(len(h.buckets))
	for _, b := range h.buckets {
		w.U64(b)
	}
	w.U64(h.count).I64(h.sum).I64(h.min).I64(h.max)
}

// RestoreState replaces the histogram's state with the checkpoint's.
func (h *Histogram) RestoreState(r *snapshot.R) error {
	h.buckets = make([]uint64, r.Len(8))
	for i := range h.buckets {
		h.buckets[i] = r.U64()
	}
	h.count, h.sum, h.min, h.max = r.U64(), r.I64(), r.I64(), r.I64()
	return r.Err()
}
