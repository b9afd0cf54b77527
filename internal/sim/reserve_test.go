package sim

import (
	"fmt"
	"reflect"
	"testing"

	"nocs/internal/trace"
)

// dispatchRec is one observed dispatch: who ran, when, and what the engine
// reported as its horizon from inside the body.
type dispatchRec struct {
	label   string
	at      Cycles
	horizon Cycles
	next    Cycles
}

// chainWorld runs a few pre-known event trains plus noise events that spawn
// more noise at random (often zero) delays. Trains are either scheduled
// whole up front or streamed one heap entry at a time through reserved
// sequence numbers; the dispatch log must not tell the two apart.
type chainWorld struct {
	e    *Engine
	rng  *RNG
	log  []dispatchRec
	left int // noise events still allowed to spawn
}

func (w *chainWorld) record(label string) {
	next, _ := w.e.NextEventAt()
	w.log = append(w.log, dispatchRec{label, w.e.Now(), w.e.BatchHorizon(), next})
}

type noiseEv struct {
	w  *chainWorld
	id int
}

func (n *noiseEv) OnEvent() {
	w := n.w
	w.record(fmt.Sprintf("noise%d", n.id))
	for k := w.rng.Intn(3); k > 0 && w.left > 0; k-- {
		w.left--
		w.e.AfterCallback(Cycles(w.rng.Intn(3)*w.rng.Intn(40)), "noise", &noiseEv{w, w.left})
	}
}

// trainEv is one event of train t, scheduled up front.
type trainEv struct {
	w    *chainWorld
	t, i int
}

func (ev *trainEv) OnEvent() { ev.w.record(fmt.Sprintf("train%d.%d", ev.t, ev.i)) }

// trainStream is train t streamed: each event arms its successor under
// its reserved number, then records itself.
type trainStream struct {
	w     *chainWorld
	t     int
	times []Cycles
	base  uint64
	next  int
}

func (s *trainStream) OnEvent() {
	i := s.next
	s.next++
	if s.next < len(s.times) {
		s.w.e.AtSeq(s.times[s.next], s.base+uint64(s.next), "train", s)
	}
	s.w.record(fmt.Sprintf("train%d.%d", s.t, i))
}

func runChainWorld(seed uint64, streamed bool) ([]dispatchRec, uint64) {
	w := &chainWorld{e: NewEngine(nil), rng: NewRNG(seed), left: 400}
	trainRNG := NewRNG(seed ^ 0x5eed)
	for t := 0; t < 4; t++ {
		// Non-decreasing times with frequent repeats, interleaved with a
		// little noise scheduled between the trains.
		times := make([]Cycles, 20+trainRNG.Intn(60))
		at := Cycles(trainRNG.Intn(50))
		for i := range times {
			at += Cycles(trainRNG.Intn(3) * trainRNG.Intn(30))
			times[i] = at
		}
		if streamed {
			s := &trainStream{w: w, t: t, times: times, base: w.e.ReserveSeqs(len(times))}
			w.e.AtSeq(times[0], s.base, "train", s)
		} else {
			for i, at := range times {
				w.e.AtCallback(at, "train", &trainEv{w, t, i})
			}
		}
		w.e.AtCallback(Cycles(trainRNG.Intn(200)), "noise", &noiseEv{w, -1 - t})
	}
	w.e.Run(0)
	return w.log, w.e.Ran()
}

// TestReservedSeqChainMatchesBulkScheduling: an event train streamed
// through ReserveSeqs/AtSeq dispatches in exactly the order, at exactly the
// cycles, and under exactly the NextEventAt/BatchHorizon values of the same
// train scheduled up front, with the same Ran count — including same-cycle
// ties against other trains and against events scheduled while it runs.
func TestReservedSeqChainMatchesBulkScheduling(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		bulk, bulkRan := runChainWorld(seed, false)
		stream, streamRan := runChainWorld(seed, true)
		if bulkRan != streamRan {
			t.Fatalf("seed %d: ran %d streamed vs %d bulk", seed, streamRan, bulkRan)
		}
		if !reflect.DeepEqual(bulk, stream) {
			for i := range min(len(bulk), len(stream)) {
				if bulk[i] != stream[i] {
					t.Fatalf("seed %d: dispatch %d is %+v streamed, %+v bulk", seed, i, stream[i], bulk[i])
				}
			}
			t.Fatalf("seed %d: %d dispatches streamed, %d bulk", seed, len(stream), len(bulk))
		}
	}
}

// TestRunInlineDispatchesOnlyTheNextEvent checks RunInline against the pop
// it stands in for: it succeeds exactly when (at, seq) sorts before the heap
// head — tombstones included — and within the RunUntil deadline, and then
// advances the clock, counts the dispatch in Ran and emits the dispatch
// trace instant; on failure nothing changes.
func TestRunInlineDispatchesOnlyTheNextEvent(t *testing.T) {
	e := NewEngine(nil)
	tr := trace.New()
	e.SetTracer(tr, tr.NewTrack("engine", "dispatch"))
	early := e.ReserveSeqs(1)    // reserved before the head was queued
	e.At(100, "head", func() {}) // seq early+1
	late := e.ReserveSeqs(1)     // reserved after

	for _, tc := range []struct {
		at   Cycles
		seq  uint64
		want bool
	}{
		{100, late, false}, // tie at the head's cycle, later seq: the head goes first
		{101, early, false},
		{100, early, true}, // tie, earlier seq: this one goes first
	} {
		ran, now := e.Ran(), e.Now()
		if got := e.RunInline(tc.at, tc.seq, "exec"); got != tc.want {
			t.Fatalf("RunInline(%d, %d) = %v, want %v", tc.at, tc.seq, got, tc.want)
		}
		if !tc.want && (e.Ran() != ran || e.Now() != now) {
			t.Fatalf("failed RunInline(%d, %d) changed Ran or the clock", tc.at, tc.seq)
		}
	}
	if e.Ran() != 1 || e.Now() != 100 || tr.Len() != 1 {
		t.Fatalf("after one inline dispatch: Ran %d, now %d, %d trace events; want 1, 100, 1", e.Ran(), e.Now(), tr.Len())
	}

	// A tombstone at the heap head bounds it like a live event.
	e3 := NewEngine(nil)
	e3.Tombstone(5, e3.ReserveSeqs(1), "cancelled")
	if seq := e3.ReserveSeqs(1); e3.RunInline(5, seq, "exec") || !e3.RunInline(4, seq, "exec") {
		t.Fatal("RunInline ignored the tombstone at the heap head")
	}

	// Under RunUntil the deadline bounds it as well.
	e2 := NewEngine(nil)
	seq := e2.ReserveSeqs(2)
	var inline []bool
	e2.AtSeq(10, seq, "outer", funcEv(func() {
		inline = append(inline, e2.RunInline(51, seq+1, "exec"), e2.RunInline(50, seq+1, "exec"))
	}))
	e2.RunUntil(50)
	if len(inline) != 2 || inline[0] || !inline[1] || e2.Ran() != 2 {
		t.Fatalf("inside RunUntil(50): RunInline at 51, 50 = %v, Ran %d; want [false true], 2", inline, e2.Ran())
	}

	// Under Run(limit) and Step the limit counts inline dispatches too: an
	// event whose body would dispatch inline without end still returns.
	for _, limit := range []int{1, 3} {
		e4 := NewEngine(nil)
		inlined := 0
		e4.AtSeq(0, e4.ReserveSeqs(1), "outer", funcEv(func() {
			for e4.RunInline(e4.Now()+1, e4.ReserveSeqs(1), "exec") {
				inlined++
			}
		}))
		var n int
		if limit == 1 {
			if e4.Step() {
				n = 1
			}
		} else {
			n = e4.Run(limit)
		}
		if n != limit || inlined != limit-1 || e4.Ran() != uint64(limit) {
			t.Fatalf("limit %d: ran %d events, %d inline, Ran %d; want %d, %d, %d", limit, n, inlined, e4.Ran(), limit, limit-1, limit)
		}
	}
}

// funcEv adapts a closure to Callback.
type funcEv func()

func (f funcEv) OnEvent() { f() }
