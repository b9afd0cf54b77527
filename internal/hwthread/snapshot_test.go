package hwthread

import (
	"bytes"
	"testing"

	"nocs/internal/mem"
	"nocs/internal/snapshot"
)

// roundTrip encodes src's context section and restores it into dst.
func roundTrip(t *testing.T, src, dst *Context) {
	t.Helper()
	b := snapshot.NewBuilder()
	src.SnapshotState(b.Section("ctx"), -1)
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := snapshot.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Restore("ctx", func(r *snapshot.R) error {
		_, err := dst.RestoreState(r)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// TestUntranslatedContextHasNoTDTCache: a context that never translates
// has no TDT cache map, and checkpointing it allocates nothing beyond the
// section's bytes.
func TestUntranslatedContextHasNoTDTCache(t *testing.T) {
	c := NewManager(mem.NewMemory(), 4).Context(1)
	if c.tdtCache != nil {
		t.Fatal("a fresh context has a TDT cache map")
	}
	w := snapshot.NewBuilder().Section("ctx")
	w.Grow(1 << 16) // room for every run's bytes: only the encoder is measured
	if n := testing.AllocsPerRun(100, func() { c.SnapshotState(w, -1) }); n != 0 {
		t.Fatalf("snapshotting an untranslated context allocates %v times, want 0", n)
	}
	if c.tdtCache != nil {
		t.Fatal("snapshotting gave the context a TDT cache map")
	}
}

// TestRestoreOfNoTranslationsDropsCached: restoring a checkpoint whose
// context cached nothing into one that has cached a translation leaves no
// stale row: the cache is empty, and the next translation reads the table
// as it is now.
func TestRestoreOfNoTranslationsDropsCached(t *testing.T) {
	m := mem.NewMemory()
	mgr := NewManager(m, 4)
	caller := mgr.Context(0)
	grant(m, caller, 0x1000, 0, 1, PermStart)
	if _, f := mgr.Translate(caller, 0); f != nil {
		t.Fatal(f)
	}
	if _, ok := caller.CachedEntry(0); !ok {
		t.Fatal("translation not cached")
	}
	fresh := NewManager(m, 4).Context(0)
	fresh.Regs.TDT = 0x1000
	roundTrip(t, fresh, caller)
	if _, ok := caller.CachedEntry(0); ok || len(caller.tdtCache) != 0 {
		t.Fatalf("a restore of zero translations kept %d cached rows", len(caller.tdtCache))
	}
	WriteTDTEntry(m, 0x1000, 0, Entry{PTID: 2, Perm: PermStart})
	if e, f := mgr.Translate(caller, 0); f != nil || e.PTID != 2 {
		t.Fatalf("translation after restore = %+v, %v; want ptid 2 from the table", e, f)
	}
}

// TestTDTCacheOpsOnFreshContext: invtid and the cached-entry probe work on
// a context that has no TDT cache map yet, and neither makes one.
func TestTDTCacheOpsOnFreshContext(t *testing.T) {
	c := NewManager(mem.NewMemory(), 2).Context(0)
	if _, ok := c.CachedEntry(3); ok {
		t.Fatal("a fresh context has a cached translation")
	}
	c.InvalidateVTID(3)
	if c.tdtCache != nil {
		t.Fatal("a probe or an invtid made a TDT cache map")
	}
}
