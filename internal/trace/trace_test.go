package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestNilTracerIsFreeAndSilent(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer enabled")
	}
	// Every method must be a no-op on the nil receiver: this is the whole
	// "zero overhead when disabled" contract.
	if a := testing.AllocsPerRun(1000, func() {
		tk := tr.NewTrack("p", "t")
		tr.Begin(tk, "s", 1)
		tr.BeginArg(tk, "s", "a", 1)
		tr.End(tk, 2)
		tr.Complete(tk, "x", 1, 2)
		tr.CompleteArg(tk, "x", "a", 1, 2)
		tr.Instant(tk, "i", 1)
		tr.InstantArg(tk, "i", "a", 1)
		tr.Count(tk, "c", 1, 42)
		f := tr.NewFlow()
		tr.FlowStart(tk, "w", 1, f)
		tr.FlowEnd(tk, "w", 2, f)
		tr.StashFlow(f)
		_ = tr.TakeFlow()
		_ = tr.Events()
		_ = tr.Tracks()
		_, _ = tr.TrackInfo(tk)
		_ = tr.Len()
	}); a != 0 {
		t.Fatalf("nil tracer allocates %.1f/op", a)
	}
	if err := tr.CheckNesting(); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b.Bytes()) {
		t.Fatalf("nil-tracer JSON invalid: %s", b.String())
	}
}

func TestTrackRegistrationOrder(t *testing.T) {
	tr := New()
	a := tr.NewTrack("procA", "one")
	b := tr.NewTrack("procA", "two")
	c := tr.NewTrack("procB", "one")
	d := tr.NewTrack("procA", "three")
	if a == 0 || b == 0 || c == 0 || d == 0 {
		t.Fatal("zero TrackID handed out")
	}
	ta, _ := tr.TrackInfo(a)
	tb, _ := tr.TrackInfo(b)
	tc, _ := tr.TrackInfo(c)
	td, _ := tr.TrackInfo(d)
	if ta.PID != tb.PID || ta.PID != td.PID {
		t.Fatalf("procA tracks split across pids: %d %d %d", ta.PID, tb.PID, td.PID)
	}
	if tc.PID == ta.PID {
		t.Fatal("procB shares procA's pid")
	}
	// tids count per process, in registration order, starting at 1 (tid 0 is
	// the process-name metadata row).
	if ta.TID != 1 || tb.TID != 2 || td.TID != 3 || tc.TID != 1 {
		t.Fatalf("tids %d %d %d / %d", ta.TID, tb.TID, td.TID, tc.TID)
	}
	if _, ok := tr.TrackInfo(TrackID(99)); ok {
		t.Fatal("bogus track resolved")
	}
}

func TestEventsToInvalidTrackAreDropped(t *testing.T) {
	tr := New()
	tr.Instant(0, "nope", 1)
	tr.Begin(0, "nope", 1)
	if tr.Len() != 0 {
		t.Fatalf("%d events recorded on the zero track", tr.Len())
	}
}

func TestTimestampRendering(t *testing.T) {
	// 3000 cycles per µs, 3 per ns: the ts must render as µs with exactly
	// three fractional digits, from integer math alone.
	cases := []struct {
		cycles int64
		want   string
	}{
		{0, "0.000"},
		{3, "0.001"},
		{2999, "0.999"},
		{3000, "1.000"},
		{4500, "1.500"},
		{3_000_000_000, "1000000.000"},
		{-4500, "-1.500"},
	}
	for _, c := range cases {
		if got := string(appendTS(nil, c.cycles)); got != c.want {
			t.Errorf("appendTS(%d) = %q, want %q", c.cycles, got, c.want)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := New()
	tk := tr.NewTrack("core0", "ptid0")
	cnt := tr.NewTrack("core0", "pipeline")
	tr.Begin(tk, "runnable", 0)
	tr.Complete(tk, "syscall", 100, 50)
	tr.InstantArg(tk, "wake", `needs "escaping"\`, 200)
	tr.Count(cnt, "runnable", 200, 3)
	f := tr.NewFlow()
	tr.FlowStart(tk, "wakeup", 210, f)
	tr.FlowEnd(tk, "wakeup", 220, f)
	tr.End(tk, 300)

	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string  `json:"ph"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Name string  `json:"name"`
			Args map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
	// One process_name, two thread_name rows, then the 7 events in order.
	var phases []string
	for _, ev := range doc.TraceEvents {
		phases = append(phases, ev.Ph)
	}
	want := []string{"M", "M", "M", "B", "X", "i", "C", "s", "f", "E"}
	if strings.Join(phases, "") != strings.Join(want, "") {
		t.Fatalf("phases %v, want %v", phases, want)
	}
	x := doc.TraceEvents[4]
	if x.TS != 0.033 || x.Dur != 0.016 {
		t.Fatalf("X span ts/dur %v/%v", x.TS, x.Dur)
	}
	i := doc.TraceEvents[5]
	if i.Args["detail"] != `needs "escaping"\` {
		t.Fatalf("arg round-trip: %q", i.Args["detail"])
	}
	c := doc.TraceEvents[6]
	if c.Args["value"] != float64(3) {
		t.Fatalf("counter value %v", c.Args["value"])
	}
}

func TestWriteJSONDeterministic(t *testing.T) {
	mk := func() *bytes.Buffer {
		tr := New()
		a := tr.NewTrack("p1", "t1")
		b := tr.NewTrack("p2", "t1")
		for i := int64(0); i < 100; i++ {
			tr.Complete(a, "work", i*10, 5)
			tr.Count(b, "n", i*10, i%7)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	if !bytes.Equal(mk().Bytes(), mk().Bytes()) {
		t.Fatal("identical emission sequences produced different JSON")
	}
}

func TestFlowStash(t *testing.T) {
	tr := New()
	if tr.TakeFlow() != 0 {
		t.Fatal("empty stash not zero")
	}
	f := tr.NewFlow()
	g := tr.NewFlow()
	if f == 0 || g == 0 || f == g {
		t.Fatalf("flow ids %d %d", f, g)
	}
	tr.StashFlow(f)
	if got := tr.TakeFlow(); got != f {
		t.Fatalf("took %d, want %d", got, f)
	}
	if tr.TakeFlow() != 0 {
		t.Fatal("stash not consumed by take")
	}
	// StashFlow(0) is the "drop whatever is pending" idiom used after a
	// monitor delivers a wake to a non-core waiter.
	tr.StashFlow(g)
	tr.StashFlow(0)
	if tr.TakeFlow() != 0 {
		t.Fatal("StashFlow(0) did not clear")
	}
}

func TestCheckNestingAcceptsProperSpans(t *testing.T) {
	tr := New()
	tk := tr.NewTrack("p", "t")
	tr.Begin(tk, "outer", 0)
	tr.Complete(tk, "inner", 10, 20) // nested inside outer
	tr.End(tk, 100)
	tr.Complete(tk, "later", 100, 10) // back-to-back at the boundary
	tr.Begin(tk, "unclosed", 200)     // open at trace end: allowed
	if err := tr.CheckNesting(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckNestingRejectsPartialOverlap(t *testing.T) {
	tr := New()
	tk := tr.NewTrack("p", "t")
	tr.Complete(tk, "a", 0, 50)
	tr.Complete(tk, "b", 25, 50) // [25,75) partially overlaps [0,50)
	if err := tr.CheckNesting(); err == nil {
		t.Fatal("partial overlap accepted")
	}
}

func TestCheckNestingRejectsDanglingEnd(t *testing.T) {
	tr := New()
	tk := tr.NewTrack("p", "t")
	tr.End(tk, 5)
	if err := tr.CheckNesting(); err == nil {
		t.Fatal("dangling End accepted")
	}
}

// TestForkMergesInForkOrder: a root and its forks read back exactly like one
// tracer that saw the root's registrations and events first, then each
// fork's in fork order — pids shared by process name, tids counted across
// buffers, track and flow IDs renumbered.
func TestForkMergesInForkOrder(t *testing.T) {
	// emit drives one buffer: a shared-process track, a private track, a
	// span, and a flow.
	emit := func(tr *Tracer, private string, at int64) {
		a := tr.NewTrack("devices", "dev-"+private)
		b := tr.NewTrack(private, "ptid0")
		tr.Begin(b, "runnable", at)
		f := tr.NewFlow()
		tr.FlowStart(a, "wake", at+1, f)
		tr.FlowEnd(b, "wake", at+2, f)
		tr.Count(a, "n", at+3, at)
		tr.End(b, at+4)
	}

	root := New()
	s0, s1 := root.Fork(), root.Fork()
	// Emission interleaves across buffers, as concurrent shards would.
	emit(s1, "s1", 100)
	emit(root, "root", 0)
	emit(s0, "s0", 50)

	flat := New()
	emit(flat, "root", 0)
	emit(flat, "s0", 50)
	emit(flat, "s1", 100)

	var got, want bytes.Buffer
	if err := root.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := flat.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("forked trace differs from its flat equivalent:\n%s\nwant:\n%s", got.String(), want.String())
	}
	if root.Len() != flat.Len() || len(root.Tracks()) != len(flat.Tracks()) {
		t.Fatalf("Len/Tracks %d/%d, want %d/%d", root.Len(), len(root.Tracks()), flat.Len(), len(flat.Tracks()))
	}
	for i, ev := range root.Events() {
		if ev != flat.Events()[i] {
			t.Fatalf("event %d: %+v, want %+v", i, ev, flat.Events()[i])
		}
		gk, _ := root.TrackInfo(ev.Track)
		wk, _ := flat.TrackInfo(ev.Track)
		if gk != wk {
			t.Fatalf("event %d track %+v, want %+v", i, gk, wk)
		}
	}
	if err := root.CheckNesting(); err != nil {
		t.Fatal(err)
	}
	if (*Tracer)(nil).Fork() != nil {
		t.Fatal("fork of the disabled tracer is enabled")
	}
}
