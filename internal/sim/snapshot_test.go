package sim

import (
	"bytes"
	"errors"
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

// TestEventRecordPair: WriteEvent claims and writes a live event's key,
// and refuses a stale handle by name; ReadEvent re-creates the event at
// that key, and refuses, re-creating nothing, a record before the restored
// clock or one whose read failed. A tombstone before the engine section's
// clock is refused the same way.
func TestEventRecordPair(t *testing.T) {
	e := NewEngine(nil)
	h := e.AtCallback(40, "live", &tagEv{})
	gone := e.AtCallback(50, "gone", &tagEv{})
	e.Cancel(gone)

	b := snapshot.NewBuilder()
	e.BeginSnapshot()
	if err := e.WriteEvent(b.Section("ev"), h, "live"); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteEvent(b.Section("stale"), gone, "gone"); err == nil || !strings.Contains(err.Error(), "gone") {
		t.Fatalf("stale handle: got %v", err)
	}
	b.Section("engine").I64(100).U64(9).U64(0).Len(1).I64(60).U64(3).String("old")
	b.Section("short").I64(40)
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		section string
		now     Cycles
		ok      bool
	}{{"ev", 40, true}, {"ev", 41, false}, {"short", 0, false}} {
		d := NewEngine(nil)
		d.BeginRestore(tc.now)
		var got Handle
		err := snap.Restore(tc.section, func(r *snapshot.R) error {
			got = d.ReadEvent(r, "live", &tagEv{})
			return nil
		})
		if tc.ok != (err == nil) || tc.ok != (got != NoEvent) || tc.ok != (d.Pending() == 1) {
			t.Fatalf("%s at clock %d: handle %v, %d queued, err %v", tc.section, tc.now, got, d.Pending(), err)
		}
		if tc.now == 41 && !errors.Is(err, ErrEventRecord) {
			t.Fatalf("record before the clock: got %v, want ErrEventRecord", err)
		}
		if tc.ok {
			d.BeginSnapshot()
			if at, seq, _ := d.Claim(got); at != 40 || seq != 0 {
				t.Fatalf("re-created at (%d, %d), want (40, 0)", at, seq)
			}
		}
	}

	err = snap.Restore("engine", func(r *snapshot.R) error { _, err := ReadEngineState(r); return err })
	if !errors.Is(err, ErrEventRecord) {
		t.Fatalf("tombstone before the clock: got %v, want ErrEventRecord", err)
	}
}

// TestXMsgsRestore: the scheduler's xmsgs section re-creates a write in
// flight between shards and a write queued on its own shard's engine, and
// re-encodes to its own bytes. It refuses a record naming an unknown shard,
// a record timed before its target's clock, a send-counter count that is
// not the shard count, and (at FinishRestore) a queued write whose seq is
// not below the restored seq counter.
func TestXMsgsRestore(t *testing.T) {
	// rec writes one record: (at, src, seq, to, addr, val).
	rec := func(w *snapshot.W, at, src, seq, to int64) {
		w.I64(at).I64(src).U64(uint64(seq)).I64(to).I64(0x40).I64(at)
	}
	valid := func(w *snapshot.W) {
		w.Len(2).U64(3).U64(4).Len(2)
		rec(w, 120, 1, 5, 1) // queued on shard 1's engine
		rec(w, 150, 0, 2, 1) // in flight from shard 0
	}
	for _, tc := range []struct {
		name    string
		write   func(w *snapshot.W)
		seq     uint64 // restored engine seq counter
		restore string // substring of RestoreState's error ("" = none)
		finish  bool   // FinishRestore must fail
		isEvent bool   // RestoreState's error is ErrEventRecord
	}{
		{name: "valid", write: valid, seq: 6},
		{name: "unknown shard", seq: 6, restore: "to shard 5", write: func(w *snapshot.W) {
			w.Len(2).U64(0).U64(0).Len(1)
			rec(w, 150, 0, 0, 5)
		}},
		{name: "before clock", seq: 6, restore: "before the restored clock", isEvent: true, write: func(w *snapshot.W) {
			w.Len(2).U64(0).U64(1).Len(1)
			rec(w, 50, 1, 0, 0)
		}},
		{name: "send counters", seq: 6, restore: "3 send counters for 2 shards", write: func(w *snapshot.W) {
			w.Len(3).U64(0).U64(0).U64(0).Len(0)
		}},
		{name: "queued seq at counter", write: valid, seq: 5, finish: true},
	} {
		b := snapshot.NewBuilder()
		tc.write(b.Section("xmsgs"))
		var buf bytes.Buffer
		if _, err := b.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		snap, err := snapshot.Decode(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}

		s := NewScheduler(2, 10, 1)
		logs := []*wakeLog{storeTo(s.Shard(0)), storeTo(s.Shard(1))}
		for i := range 2 {
			s.Shard(ShardID(i)).BeginRestore(100)
		}
		err = snap.Restore("xmsgs", s.RestoreState)
		if tc.restore != "" {
			if err == nil || !strings.Contains(err.Error(), tc.restore) || tc.isEvent != errors.Is(err, ErrEventRecord) {
				t.Errorf("%s: restore error %v, want %q", tc.name, err, tc.restore)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var finishErr error
		for i := range 2 {
			if err := s.Shard(ShardID(i)).FinishRestore(EngineState{Now: 100, Seq: tc.seq}); err != nil {
				finishErr = err
			}
		}
		if tc.finish {
			if finishErr == nil {
				t.Errorf("%s: FinishRestore accepted a seq counter at a queued write's seq", tc.name)
			}
			continue
		}
		if finishErr != nil {
			t.Fatalf("%s: %v", tc.name, finishErr)
		}

		again := snapshot.NewBuilder()
		for i := range 2 {
			s.Shard(ShardID(i)).BeginSnapshot()
		}
		if err := s.SnapshotState(again.Section("xmsgs")); err != nil {
			t.Fatal(err)
		}
		var rebuf bytes.Buffer
		if _, err := again.WriteTo(&rebuf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), rebuf.Bytes()) {
			t.Errorf("%s: restored xmsgs section does not re-encode to its own bytes", tc.name)
		}
		if s.Pending() != 2 {
			t.Errorf("%s: %d writes pending after restore, want 2", tc.name, s.Pending())
		}
		s.RunUntil(200)
		if len(logs[0].at) != 0 || len(logs[1].at) != 2 || logs[1].at[0] != 120 || logs[1].at[1] != 150 {
			t.Errorf("%s: stores landed at %v and %v, want none and [120 150]", tc.name, logs[0].at, logs[1].at)
		}
	}
}
