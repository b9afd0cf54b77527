package mem

import (
	"bytes"
	"testing"

	"nocs/internal/snapshot"
)

// fuzzHierarchyConfig keeps the fuzzed hierarchy small (2, 4 and 4 sets),
// so a valid section is a few hundred bytes the fuzzer can mutate.
var fuzzHierarchyConfig = HierarchyConfig{
	L1Bytes: 256, L2Bytes: 512, L3Bytes: 1024, LineBytes: 64,
	L1Ways: 2, L2Ways: 2, L3Ways: 4,
}

// sectionPayload returns the payload write puts in a section.
func sectionPayload(t testing.TB, write func(w *snapshot.W)) []byte {
	data := encodeSection(t, "s", write)
	r := sectionReader(t, data, "s")
	out := make([]byte, r.Remaining())
	for i := range out {
		out[i] = r.U8()
	}
	return out
}

// restoreRoundTrip feeds payload to restore as one section's bytes and
// reports whether restore accepted it. If it did, snapshot must re-encode
// the bytes restore read, byte for byte; bytes restore left unread belong
// to the next reader.
func restoreRoundTrip(t *testing.T, payload []byte, restore func(*snapshot.R) error, snap func(*snapshot.W)) bool {
	data := encodeSection(t, "s", func(w *snapshot.W) {
		for _, b := range payload {
			w.U8(b)
		}
	})
	r := sectionReader(t, data, "s")
	if err := restore(r); err != nil {
		return false
	}
	read := payload[:len(payload)-r.Remaining()]
	if again := sectionPayload(t, snap); !bytes.Equal(again, read) {
		t.Fatalf("accepted section re-encodes differently:\n got %x\nwant %x", again, read)
	}
	return true
}

// FuzzMemoryRestore holds the mem codecs to two properties on arbitrary
// bytes: Memory.RestoreState and Hierarchy.RestoreState never panic, and
// whatever they accept re-encodes to exactly the bytes they read. The
// second needs restore to refuse every encoding SnapshotState would not
// write: repeated or unordered word addresses (ErrWordOrder), impossible
// tag lists and any pin (ErrCacheState). Caches restore in place, so each
// payload also goes into churnedHierarchy: it must be accepted exactly when
// a fresh hierarchy accepts it, and then re-encode to the same bytes, so no
// line the target held before survives.
func FuzzMemoryRestore(f *testing.F) {
	f.Add([]byte{})
	f.Add(sectionPayload(f, churnedSmallMemory().SnapshotState))
	f.Add(sectionPayload(f, func(w *snapshot.W) {
		w.Len(2).I64(8).I64(1).I64(8).I64(2).U64(2).U64(0) // a repeated address
	}))
	h := churnedHierarchy()
	f.Add(sectionPayload(f, h.SnapshotState))
	f.Add(sectionPayload(f, h.L1.SnapshotState))

	f.Fuzz(func(t *testing.T, payload []byte) {
		m := NewMemory()
		restoreRoundTrip(t, payload, m.RestoreState, m.SnapshotState)
		h, d := NewHierarchy(nil, fuzzHierarchyConfig), churnedHierarchy()
		fresh := restoreRoundTrip(t, payload, h.RestoreState, h.SnapshotState)
		if inPlace := restoreRoundTrip(t, payload, d.RestoreState, d.SnapshotState); inPlace != fresh {
			t.Fatalf("in-place restore accepted=%v, fresh restore accepted=%v", inPlace, fresh)
		}
	})
}

// churnedSmallMemory is a few words, address 0 and a negative one among them.
func churnedSmallMemory() *Memory {
	m := NewMemory()
	for _, a := range []int64{0, -8, 3, 64, 1 << 40} {
		m.Write(a, a/2, SrcDMA)
	}
	m.Write(3, 0, SrcCPU)
	return m
}

// churnedHierarchy has lines at every level and LRU orders that differ
// from insertion order.
func churnedHierarchy() *Hierarchy {
	h := NewHierarchy(nil, fuzzHierarchyConfig)
	for _, a := range []int64{0, 64, 128, 192, 256, 0, 320, 64, 512, 1024, 128} {
		h.AccessCycles(a)
	}
	return h
}
