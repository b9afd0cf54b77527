package kernel

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"nocs/internal/sim"
	"nocs/internal/workload"
)

// upfrontArrival is the arrival scheduling the servers used before arrival
// streams, kept as the oracle: one heap event per request, every one
// scheduled at submission.
type upfrontArrival struct {
	s arrivalSink
	r workload.Request
}

func (a *upfrontArrival) OnEvent() { a.s.arrive(a.r) }

type orderServer interface {
	QueueServer
	arrivalSink
}

// orderServers builds each discipline and variant under test on eng,
// reporting completions to out.
var orderServers = []struct {
	name  string
	build func(eng *sim.Shard, out func(Completion)) (orderServer, string)
}{
	{"fcfs", func(eng *sim.Shard, out func(Completion)) (orderServer, string) {
		return NewFCFS(eng, 2, 100, out), "fcfs-arrival"
	}},
	{"ps", func(eng *sim.Shard, out func(Completion)) (orderServer, string) {
		return NewPS(eng, 2, 100, out), "ps-arrival"
	}},
	{"ps-maxactive", func(eng *sim.Shard, out func(Completion)) (orderServer, string) {
		s := NewPS(eng, 2, 100, out)
		s.MaxActive = 3
		return s, "ps-arrival"
	}},
	{"timeslice", func(eng *sim.Shard, out func(Completion)) (orderServer, string) {
		return NewTimeslice(eng, 2, 300, 100, out), "ts-arrival"
	}},
}

// orderBatch is a request workload submitted in (up to) two waves: the
// first at cycle 0, the second once the engine has run to split. Arrival
// times in the second wave may precede requests still queued from the
// first, so a stream must arm entries ahead of its current head.
type orderBatch struct {
	name   string
	first  []workload.Request
	split  sim.Cycles
	second []workload.Request
	// ties marks a batch built to hit the tie-break cases: some arrivals
	// share a cycle, and some land on the cycle of a completion.
	ties bool
}

// gridRequests puts arrivals, demands and overheads on a 100-cycle grid, so
// many requests arrive on the same cycle and many arrivals land on the
// cycle some completion (or quantum slice) fires.
func gridRequests(n, idBase int, from sim.Cycles, rng *sim.RNG) []workload.Request {
	reqs := make([]workload.Request, n)
	at := from
	for i := range reqs {
		at += sim.Cycles(100 * rng.Intn(8)) // a gap of 0 repeats the cycle
		reqs[i] = workload.Request{ID: idBase + i, Arrival: at, Demand: sim.Cycles(100 * (1 + rng.Intn(8)))}
	}
	return reqs
}

func orderBatches() []orderBatch {
	rng := sim.NewRNG(3)
	poisson := func() []workload.Request {
		arr := workload.NewPoissonArrivals(400, rng)
		return workload.Generate(200, 0, arr, workload.NewBimodal(300, 6000, 0.9, rng.Split()))
	}
	shuffled := gridRequests(200, 0, 0, rng)
	for i := len(shuffled) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	return []orderBatch{
		{name: "poisson", first: poisson()},
		{name: "grid", first: gridRequests(300, 0, 0, rng), ties: true},
		{name: "shuffled", first: shuffled},
		// The first wave pauses from ~7000 to 40000; the second, submitted
		// at 20000, fills that gap, so its early entries sort ahead of the
		// first wave's armed head.
		{name: "second-wave", first: append(gridRequests(20, 0, 0, rng), gridRequests(180, 20, 40000, rng)...),
			split: 20000, second: gridRequests(200, 1000, 20000, rng)},
	}
}

type orderOutcome struct {
	comps []Completion
	ran   uint64
	now   sim.Cycles
}

// runOrder submits the batch in one of four modes — "upfront" (the
// oracle), "each" (Submit per request), "stream" (the first wave as one
// request train, the second by Submit, so its requests sort in ahead of the
// train's drawn one) or "openloop" (a one-wave batch through RunOpenLoop,
// which sorts it into a train) — and drains the engine.
func runOrder(build func(*sim.Shard, func(Completion)) (orderServer, string), b orderBatch, mode string) orderOutcome {
	eng := sim.SoloShard(sim.NewEngine(nil))
	var out orderOutcome
	srv, name := build(eng, func(c Completion) { out.comps = append(out.comps, c) })
	submit := func(reqs []workload.Request, wave int) {
		switch {
		case mode == "upfront":
			for _, r := range reqs {
				eng.AtCallback(r.Arrival, name, &upfrontArrival{s: srv, r: r})
			}
		case mode == "stream" && wave == 0:
			arr, _ := srv.feed()
			arr.stream(&sliceSource{reqs}, len(reqs))
		case mode == "openloop":
			if got := RunOpenLoop(eng, srv, reqs); len(got) != len(reqs) {
				panic(fmt.Sprintf("RunOpenLoop returned %d of %d completions", len(got), len(reqs)))
			}
		default:
			for _, r := range reqs {
				srv.Submit(r)
			}
		}
	}
	submit(b.first, 0)
	if b.second != nil {
		eng.RunUntil(b.split)
		submit(b.second, 1)
	}
	eng.Run(0)
	out.ran, out.now = eng.Ran(), eng.Now()
	return out
}

// TestArrivalStreamsMatchUpfrontScheduling: streaming arrivals through one
// heap entry must not change anything observable — completion sequence
// (IDs, finish cycles, latencies), events run, and the final clock — for
// every discipline, for in-order, same-cycle, shuffled and second-wave
// submissions, whether submitted one request at a time, drawn one request
// at a time from a train (where the first wave is in arrival order), or run
// through RunOpenLoop (where there is one wave).
func TestArrivalStreamsMatchUpfrontScheduling(t *testing.T) {
	for _, b := range orderBatches() {
		for _, srv := range orderServers {
			t.Run(b.name+"/"+srv.name, func(t *testing.T) {
				want := runOrder(srv.build, b, "upfront")
				if n := len(b.first) + len(b.second); len(want.comps) != n {
					t.Fatalf("oracle completed %d of %d requests", len(want.comps), n)
				}
				if b.ties {
					checkTies(t, b.first, want.comps)
				}
				modes := []string{"each"}
				if slices.IsSortedFunc(b.first, func(x, y workload.Request) int { return cmp.Compare(x.Arrival, y.Arrival) }) {
					modes = append(modes, "stream")
				}
				if b.second == nil {
					modes = append(modes, "openloop")
				}
				for _, mode := range modes {
					got := runOrder(srv.build, b, mode)
					if got.ran != want.ran || got.now != want.now {
						t.Errorf("%s: ran %d events ending at %d, upfront ran %d ending at %d",
							mode, got.ran, got.now, want.ran, want.now)
					}
					if !reflect.DeepEqual(got.comps, want.comps) {
						t.Errorf("%s: completion sequence differs from upfront scheduling (%s)",
							mode, firstDiff(got.comps, want.comps))
					}
				}
			})
		}
	}
}

func firstDiff(got, want []Completion) string {
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			return fmt.Sprintf("index %d: %+v vs %+v", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("lengths %d vs %d", len(got), len(want))
}

// checkTies fails the test unless some arrivals share a cycle and some
// land on a completion's cycle, so the tie-break cases are exercised.
func checkTies(t *testing.T, reqs []workload.Request, comps []Completion) {
	t.Helper()
	arrivals := map[sim.Cycles]int{}
	shared, onCompletion := false, false
	for _, r := range reqs {
		arrivals[r.Arrival]++
		shared = shared || arrivals[r.Arrival] > 1
	}
	for _, c := range comps {
		onCompletion = onCompletion || arrivals[c.Finish] > 0
	}
	if !shared || !onCompletion {
		t.Fatalf("batch meant to hit ties has same-cycle arrivals %v, arrivals on a completion cycle %v",
			shared, onCompletion)
	}
}

// TestArrivalStreamKeepsOneHeapEntry: a request train occupies one heap
// entry and one queue entry, not one per request.
func TestArrivalStreamKeepsOneHeapEntry(t *testing.T) {
	eng := sim.SoloShard(sim.NewEngine(nil))
	s := NewPS(eng, 2, 100, nil)
	reqs := queueReqs()
	s.arr.stream(&sliceSource{reqs}, len(reqs))
	if got := eng.Pending(); got != 1 {
		t.Fatalf("%d heap entries after attaching the train, want 1", got)
	}
	peak := 0
	for eng.Step() {
		peak = max(peak, eng.Pending())
		if len(s.arr.q) > 1 {
			t.Fatalf("arrival queue grew to %d entries at cycle %d", len(s.arr.q), eng.Now())
		}
	}
	// The next arrival, the armed next-finisher, and the cancelled
	// finishers still awaiting their pop: bounded by the active set, not by
	// the batch.
	if peak > 32 {
		t.Fatalf("peak heap %d entries while draining a 300-request batch", peak)
	}
}
