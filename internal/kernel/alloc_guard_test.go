package kernel

import (
	"runtime"
	"testing"

	"nocs/internal/sim"
	"nocs/internal/workload"
)

// steadyBatch submits one deterministic batch of n requests, one Submit
// each, and drains the engine. Arrival times advance from the engine's current time so
// successive batches replay the same pattern.
func steadyBatch(eng *sim.Shard, srv QueueServer, reqs []workload.Request, n int) {
	base := eng.Now() + 1
	for i := 0; i < n; i++ {
		reqs[i] = workload.Request{
			ID:      int(base) + i,
			Arrival: base + sim.Cycles(i*37),
			Demand:  sim.Cycles(50 + (i%7)*100),
		}
	}
	for _, r := range reqs[:n] {
		srv.Submit(r)
	}
	eng.Run(0)
}

// allocCases builds each discipline for the allocation guards.
var allocCases = []struct {
	name  string
	build func(eng *sim.Shard) QueueServer
}{
	{"fcfs", func(eng *sim.Shard) QueueServer { return NewFCFS(eng, 4, 10, nil) }},
	{"ps", func(eng *sim.Shard) QueueServer { return NewPS(eng, 4, 10, nil) }},
	{"timeslice", func(eng *sim.Shard) QueueServer { return NewTimeslice(eng, 4, 100, 5, nil) }},
}

// TestServersSteadyStateAllocBound pins the zero-alloc queueing rework: once
// a server's pools are warm (arrival queue and ring capacity,
// request/callback freelists), a whole batch of requests costs a handful of
// allocations per batch, not per request. The old closure-per-event design
// allocated 4–6 objects per request; a regression back to that shape trips
// the per-batch bound immediately.
func TestServersSteadyStateAllocBound(t *testing.T) {
	const n = 200
	// Per-batch allocation budget: far below one allocation per request.
	const budget = 16.0

	for _, tc := range allocCases {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.SoloShard(sim.NewEngine(nil))
			srv := tc.build(eng)
			reqs := make([]workload.Request, n)
			steadyBatch(eng, srv, reqs, n) // warmup: grow rings, pools, heap
			allocs := testing.AllocsPerRun(10, func() {
				steadyBatch(eng, srv, reqs, n)
			})
			if allocs > budget {
				t.Fatalf("%s steady-state batch of %d requests allocates %.1f, want ≤ %.0f",
					tc.name, n, allocs, budget)
			}
		})
	}
}

// steadyTrain is a request train that keeps every server's queues short:
// one arrival every 200 cycles, demands of 50 to 650 on 4 servers.
type steadyTrain struct{ n int }

func (s *steadyTrain) Next() workload.Request {
	s.n++
	return workload.Request{ID: s.n, Arrival: sim.Cycles(s.n * 200), Demand: sim.Cycles(50 + (s.n%7)*100)}
}

// TestStreamAllocsIndependentOfLength: running a request train through a
// fresh server costs the same allocations and bytes for 10^3 requests as
// for 4·10^4. The train holds one request at a time, so a materialized
// request slice, arrival queue or completion slice would show as bytes
// that grow with the train.
func TestStreamAllocsIndependentOfLength(t *testing.T) {
	const small, large = 1_000, 40_000
	for _, tc := range allocCases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(n int) (allocs, bytes uint64) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				eng := sim.SoloShard(sim.NewEngine(nil))
				RunStream(eng, tc.build(eng), &steadyTrain{}, n, func(Completion) {})
				runtime.ReadMemStats(&after)
				return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
			}
			run(small) // warm up anything allocated once per process
			sa, sb := run(small)
			la, lb := run(large)
			if la != sa || lb != sb {
				t.Fatalf("a train of %d requests allocates %d objects, %d bytes; one of %d allocates %d objects, %d bytes",
					small, sa, sb, large, la, lb)
			}
		})
	}
}
