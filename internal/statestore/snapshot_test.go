package statestore

import (
	"bytes"
	"strings"
	"testing"

	"nocs/internal/isa"
	"nocs/internal/snapshot"
)

// storeSection writes a store section with entries of the given ids, all
// one base context in the register file, and zero counters.
func storeSection(t *testing.T, ids ...int64) *snapshot.Snapshot {
	t.Helper()
	b := snapshot.NewBuilder()
	w := b.Section("store").Len(len(ids))
	for _, id := range ids {
		w.I64(id).I64(isa.BaseStateBytes).U8(uint8(TierRF)).I64(0).I64(0).Bool(false)
	}
	for range 7 {
		w.U64(0)
	}
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := snapshot.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRestoreRejectsRepeatedEntry: SnapshotState writes entries in strictly
// increasing id order, so a section repeating an id, which would count one
// thread's state twice in the tier occupancy, is refused.
func TestRestoreRejectsRepeatedEntry(t *testing.T) {
	if err := storeSection(t, 3, 5).Restore("store", New(Config{}).RestoreState); err != nil {
		t.Fatal(err)
	}
	for _, ids := range [][]int64{{5, 5}, {5, 3}} {
		err := storeSection(t, ids...).Restore("store", New(Config{}).RestoreState)
		if err == nil || !strings.Contains(err.Error(), "increasing id order") {
			t.Errorf("entries %v: err = %v", ids, err)
		}
	}
}
