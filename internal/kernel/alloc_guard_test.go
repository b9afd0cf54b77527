package kernel

import (
	"testing"

	"nocs/internal/sim"
	"nocs/internal/workload"
)

// steadyBatch submits one deterministic batch of n requests via SubmitAll and
// drains the engine. Arrival times advance from the engine's current time so
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
	srv.SubmitAll(reqs[:n])
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

// TestSubmitAllAllocsIndependentOfBatchSize: queueing a batch on a fresh
// server costs the same allocations for 10^3 requests as for 10^5 — one
// queue buffer, not an event or arena entry per request.
func TestSubmitAllAllocsIndependentOfBatchSize(t *testing.T) {
	const small, large = 1_000, 100_000
	reqs := make([]workload.Request, large)
	for i := range reqs {
		reqs[i] = workload.Request{ID: i, Arrival: sim.Cycles(i * 37), Demand: 100}
	}
	for _, tc := range allocCases {
		t.Run(tc.name, func(t *testing.T) {
			submit := func(n int) float64 {
				return testing.AllocsPerRun(3, func() {
					tc.build(sim.SoloShard(sim.NewEngine(nil))).SubmitAll(reqs[:n])
				})
			}
			if a, b := submit(small), submit(large); a != b {
				t.Fatalf("SubmitAll on a fresh server allocates %.0f for %d requests but %.0f for %d",
					a, small, b, large)
			}
		})
	}
}
