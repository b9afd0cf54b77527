package sim

import (
	"bytes"
	"strings"
	"testing"

	"nocs/internal/snapshot"
)

// tagEv is a pooled-style event body a codec recognizes by type.
type tagEv struct{}

func (*tagEv) OnEvent() {}

// TestSnapshotClaimRule: in a checkpoint pass every live event is claimed by
// exactly one Claim or ClaimLive. An event none or two claimed is an error
// naming it, a cancelled event cannot be claimed and is written as a
// tombstone, and BeginSnapshot starts the next pass from an empty claim set.
func TestSnapshotClaimRule(t *testing.T) {
	e := NewEngine(nil)
	owned := e.At(10, "owned", func() {})
	e.AtCallback(30, "pooled", &tagEv{})
	e.AtCallback(20, "pooled", &tagEv{})
	gone := e.At(15, "gone", func() {})
	e.Cancel(gone)
	isTag := func(cb Callback) bool { _, ok := cb.(*tagEv); return ok }

	pass := func(claims int) error {
		e.BeginSnapshot()
		for i := 0; i < claims; i++ {
			if at, _, ok := e.Claim(owned); !ok || at != 10 {
				t.Fatalf("Claim(owned) = %d, %v; want 10, true", at, ok)
			}
		}
		if evs := e.ClaimLive(isTag); len(evs) != 2 || evs[0].At != 20 || evs[1].At != 30 {
			t.Fatalf("ClaimLive returned %+v, want the pooled events at 20 and 30", evs)
		}
		return e.SnapshotEvents(snapshot.NewBuilder().Section("engine"))
	}
	if err := pass(0); err == nil || !strings.Contains(err.Error(), `"owned"`) ||
		!strings.Contains(err.Error(), "no checkpointable owner") {
		t.Fatalf("unclaimed event: got %v", err)
	}
	if err := pass(2); err == nil || !strings.Contains(err.Error(), `"owned"`) ||
		!strings.Contains(err.Error(), "written by 2 codecs") {
		t.Fatalf("event claimed twice: got %v", err)
	}
	if _, _, ok := e.Claim(gone); ok {
		t.Fatal("Claim accepted a cancelled event")
	}
	if err := pass(1); err != nil {
		t.Fatalf("clean pass after failed ones: %v", err)
	}

	b := snapshot.NewBuilder()
	e.BeginSnapshot()
	e.Claim(owned)
	e.ClaimLive(isTag)
	if err := e.SnapshotEvents(b.Section("engine")); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	r, err := snap.Section("engine")
	if err != nil {
		t.Fatal(err)
	}
	st, err := ReadEngineState(r)
	if err != nil {
		t.Fatal(err)
	}
	if st.Seq != 4 || len(st.Tombstones) != 1 || st.Tombstones[0] != (EventRec{At: 15, Seq: 3, Name: "gone"}) {
		t.Fatalf("engine section %+v, want seq 4 and one tombstone for gone at (15, 3)", st)
	}
}
