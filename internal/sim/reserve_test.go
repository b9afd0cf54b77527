package sim

import (
	"fmt"
	"reflect"
	"testing"
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
