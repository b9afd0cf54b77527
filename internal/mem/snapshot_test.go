package mem

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"nocs/internal/snapshot"
)

// memorySectionGolden pins the NOCSNAP1 bytes of churnedMemory's section.
// It was recorded while the word store was still a Go map: the codec sorts
// addresses, so the store's layout must never reach the bytes.
const memorySectionGolden = "5cee66700500751ae41858b9e6afbacb0bd6ebc1c08ab9a092ffbf74e4896a6a"

// churnedMemoryAddrs is how many distinct addresses churnedMemory writes
// beyond its hand-picked ones: enough to grow any word table several times.
const churnedMemoryAddrs = 5000

// churnedMemory writes address 0, negative and unaligned addresses,
// zero-valued words, overwrites (including back to zero) and a few thousand
// scattered addresses, from DMA and MSI sources as well as the CPU.
func churnedMemory() *Memory {
	m := NewMemory()
	m.Write(0, 7, SrcCPU)
	m.Write(-8, -1, SrcDMA)
	m.Write(-3, 11, SrcCPU)
	m.Write(5, 0, SrcCPU) // a zero-valued word is still a written word
	m.Write(1, 9, SrcMSI)
	m.Write(1<<62, 12, SrcCPU)
	m.Write(-1<<63, 13, SrcCPU)
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < churnedMemoryAddrs; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		a := int64(x>>20) - 1<<42 // signed, mostly unaligned
		if i%3 == 0 {
			a &^= 7
		}
		m.Write(a, int64(x%97), SrcCPU)
	}
	m.Write(0, 0, SrcCPU) // overwrite address 0 with zero
	m.Write(-8, 21, SrcDMA)
	m.Write(5, 6, SrcCPU)
	return m
}

// encodeSection writes one section named sec into a NOCSNAP1 checkpoint.
func encodeSection(t testing.TB, sec string, write func(w *snapshot.W)) []byte {
	t.Helper()
	b := snapshot.NewBuilder()
	write(b.Section(sec))
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sectionReader decodes data and opens its section sec.
func sectionReader(t testing.TB, data []byte, sec string) *snapshot.R {
	t.Helper()
	snap, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	r, err := snap.Section(sec)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestMemorySectionGolden(t *testing.T) {
	want := churnedMemory()
	data := encodeSection(t, "mem", want.SnapshotState)
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != memorySectionGolden {
		t.Fatalf("memory section hash %s, want %s", got, memorySectionGolden)
	}
	m := NewMemory()
	if err := m.RestoreState(sectionReader(t, data, "mem")); err != nil {
		t.Fatal(err)
	}
	for _, a := range []int64{0, -8, -3, 5, 1, 1 << 62, -1 << 63, 8, 4, -16} {
		if m.Read(a) != want.Read(a) {
			t.Fatalf("restored word %#x = %d, want %d", a, m.Read(a), want.Read(a))
		}
	}
	gt, gn := m.Writes()
	wt, wn := want.Writes()
	if gt != wt || gn != wn {
		t.Fatalf("restored writes %d/%d, want %d/%d", gt, gn, wt, wn)
	}
	if again := encodeSection(t, "mem", m.SnapshotState); !bytes.Equal(again, data) {
		t.Fatal("re-snapshot of the restored memory differs")
	}
}

// TestMemoryRestoreWordOrder: SnapshotState lists words in strictly
// increasing address order, and restore accepts no other order. A repeated
// address would fold two entries into one word, so that memory would
// re-encode to different bytes.
func TestMemoryRestoreWordOrder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		addrs []int64
		err   error
	}{
		{"valid", []int64{-16, 0, 3, 8}, nil},
		{"duplicate", []int64{8, 8}, ErrWordOrder},
		{"descending", []int64{16, 8}, ErrWordOrder},
	} {
		data := encodeSection(t, "mem", func(w *snapshot.W) {
			w.Len(len(tc.addrs))
			for i, a := range tc.addrs {
				w.I64(a).I64(int64(i + 1))
			}
			w.U64(9).U64(2)
		})
		m := NewMemory()
		m.Write(64, 5, SrcCPU)
		err := m.RestoreState(sectionReader(t, data, "mem"))
		if !errors.Is(err, tc.err) {
			t.Errorf("%s: restore error %v, want %v", tc.name, err, tc.err)
			continue
		}
		if tc.err != nil {
			if m.Read(64) != 5 {
				t.Errorf("%s: a refused restore changed memory", tc.name)
			}
			continue
		}
		if again := encodeSection(t, "mem", m.SnapshotState); !bytes.Equal(again, data) {
			t.Errorf("%s: restored memory re-encodes differently", tc.name)
		}
	}
}

// writeCache writes a cache section for MustNewCache("t", 256, 64, 2, 4):
// 2 sets of 2 ways, so line ln belongs in set ln%2.
func writeCache(w *snapshot.W, set0, set1, pins []int64) {
	w.String("t").I64(256).I64(64).I64(2)
	w.Len(2).I64s(set0).I64s(set1).I64s(pins)
	w.U64(3).U64(4)
}

// dirtyCache is MustNewCache("t", 256, 64, 2, 4) already holding other
// lines than writeCache's valid case: set 1 full (more lines than that
// case's one), and set 0 with one line in an array too short for that
// case's two.
func dirtyCache() *Cache {
	c := MustNewCache("t", 256, 64, 2, 4)
	for _, a := range []int64{6 * 64, 3 * 64, 5 * 64} {
		c.Lookup(a)
	}
	return c
}

// TestCacheRestoreRejectsUnreachableState: every case below restored
// without error before the check, though no live cache can hold it, and
// cache state is timing-visible to every load and store. Each case restores
// into a fresh cache and, in place, into dirtyCache: both must take the
// same decision, and an accepted section must re-encode to its own bytes
// and answer every probe alike in both.
func TestCacheRestoreRejectsUnreachableState(t *testing.T) {
	for _, tc := range []struct {
		name             string
		set0, set1, pins []int64
		err              error
	}{
		{"valid", []int64{4, 0}, []int64{1}, nil, nil},
		{"empty", nil, nil, nil, nil},
		{"over ways", []int64{4, 0, 2}, nil, nil, ErrCacheState},
		{"wrong set", []int64{0}, []int64{2}, nil, ErrCacheState},
		{"repeated tag", []int64{2, 2}, nil, nil, ErrCacheState},
		{"pinned lines", []int64{4, 0}, []int64{1}, []int64{0, 7}, ErrCacheState},
	} {
		data := encodeSection(t, "cache", func(w *snapshot.W) { writeCache(w, tc.set0, tc.set1, tc.pins) })
		fresh, dirty := MustNewCache("t", 256, 64, 2, 4), dirtyCache()
		for _, c := range []*Cache{fresh, dirty} {
			err := c.RestoreState(sectionReader(t, data, "cache"))
			if !errors.Is(err, tc.err) {
				t.Fatalf("%s: restore error %v, want %v", tc.name, err, tc.err)
			}
			if err != nil && !strings.Contains(err.Error(), `cache "t"`) {
				t.Fatalf("%s: restore error %v does not name the cache", tc.name, err)
			}
		}
		if tc.err == nil {
			requireSameCache(t, tc.name, data, fresh, dirty)
		}
	}
}

// requireSameCache fails unless want and got, both restored from the cache
// section in data, re-encode to data and agree on every probe: Contains
// over a span of lines, then the hit or miss of each Lookup in a sequence
// that evicts, followed by a second re-encode.
func requireSameCache(t *testing.T, name string, data []byte, want, got *Cache) {
	t.Helper()
	for _, c := range []*Cache{want, got} {
		if again := encodeSection(t, "cache", c.SnapshotState); !bytes.Equal(again, data) {
			t.Fatalf("%s: restored cache re-encodes differently", name)
		}
	}
	for ln := int64(-4); ln < 12; ln++ {
		if want.Contains(ln*64) != got.Contains(ln*64) {
			t.Fatalf("%s: Contains(line %d) = %v after an in-place restore, %v after a fresh one",
				name, ln, got.Contains(ln*64), want.Contains(ln*64))
		}
	}
	for i, ln := range []int64{3, 5, 6, 1, 0, 2, 9, 4, 3, 7, 5, 11} {
		if w, g := want.Lookup(ln*64), got.Lookup(ln*64); w != g {
			t.Fatalf("%s: lookup %d of line %d hit=%v after an in-place restore, %v after a fresh one", name, i, ln, g, w)
		}
	}
	if !bytes.Equal(encodeSection(t, "cache", want.SnapshotState), encodeSection(t, "cache", got.SnapshotState)) {
		t.Fatalf("%s: caches diverge after the same lookups", name)
	}
}

// TestCacheRestoreZeroAlloc: restoring a cache into one whose sets already
// have their blocks allocates nothing; the blocks are reused.
func TestCacheRestoreZeroAlloc(t *testing.T) {
	c := MustNewCache("t", 1024, 64, 4, 4)
	for _, ln := range []int64{0, 4, 8, 1, 0, 5, -3, 2, 7, 11} {
		c.Lookup(ln * 64)
	}
	data := encodeSection(t, "cache", c.SnapshotState)
	// Open every run's reader up front: opening a section allocates its
	// reader, and only the restore is measured.
	const runs = 100
	readers := make([]*snapshot.R, runs+2) // AllocsPerRun adds a warm-up run
	for i := range readers {
		readers[i] = sectionReader(t, data, "cache")
	}
	restore := func() {
		r := readers[0]
		readers = readers[1:]
		if err := c.RestoreState(r); err != nil || r.Remaining() != 0 {
			t.Fatalf("restore: %v, %d bytes unread", err, r.Remaining())
		}
	}
	restore()
	if n := testing.AllocsPerRun(runs, restore); n != 0 {
		t.Fatalf("in-place cache restore allocates %v times per run, want 0", n)
	}
	if again := encodeSection(t, "cache", c.SnapshotState); !bytes.Equal(again, data) {
		t.Fatal("restored cache re-encodes differently")
	}
}

// TestCacheRestoreEmptySetsZeroAlloc: a checkpoint whose sets are all
// empty restores into a fresh 8 MiB, 16-way cache without allocating and
// without giving it tag arrays, and re-encodes to its own bytes. Restored
// into a cache that holds lines, the same bytes empty every set.
func TestCacheRestoreEmptySetsZeroAlloc(t *testing.T) {
	c := MustNewCache("L3", 8<<20, 64, 16, 40)
	data := encodeSection(t, "cache", c.SnapshotState)
	const runs = 100
	readers := make([]*snapshot.R, runs+2) // AllocsPerRun adds a warm-up run
	for i := range readers {
		readers[i] = sectionReader(t, data, "cache")
	}
	restore := func() {
		r := readers[0]
		readers = readers[1:]
		if err := c.RestoreState(r); err != nil || r.Remaining() != 0 {
			t.Fatalf("restore: %v, %d bytes unread", err, r.Remaining())
		}
	}
	restore()
	if n := testing.AllocsPerRun(runs, restore); n != 0 {
		t.Fatalf("restoring empty sets into a fresh cache allocates %v times per run, want 0", n)
	}
	if c.fill != nil || c.block != nil || c.arena != nil {
		t.Fatal("restoring empty sets gave the cache tag arrays")
	}
	used := MustNewCache("L3", 8<<20, 64, 16, 40)
	for ln := range int64(3 * 8192) {
		used.Lookup(ln * 64 * 7)
	}
	if err := used.RestoreState(sectionReader(t, data, "cache")); err != nil {
		t.Fatal(err)
	}
	requireSameCache(t, "empty sets", data, c, used)
}

// TestHierarchyStateBytes: Hierarchy.SnapshotState grows its payload once
// by the caches' stateBytes, which must be exactly what they write.
func TestHierarchyStateBytes(t *testing.T) {
	h := churnedHierarchy()
	want := h.L1.stateBytes() + h.L2.stateBytes() + h.L3.stateBytes() + 2*8
	if got := len(sectionPayload(t, h.SnapshotState)); got != want {
		t.Fatalf("hierarchy section is %d bytes, stateBytes sum to %d", got, want)
	}
}
