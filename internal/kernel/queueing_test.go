package kernel

import (
	"math"
	"testing"

	"nocs/internal/metrics"
	"nocs/internal/sim"
	"nocs/internal/workload"
)

// mm1Run drives an M/M/1 system through the given server constructor and
// returns the mean sojourn time.
func runMean(t *testing.T, srv QueueServer, eng *sim.Shard, reqs []workload.Request) float64 {
	t.Helper()
	comps := RunOpenLoop(eng, srv, reqs)
	if len(comps) != len(reqs) {
		t.Fatalf("completed %d of %d", len(comps), len(reqs))
	}
	var sum float64
	for _, c := range comps {
		sum += float64(c.Latency)
	}
	return sum / float64(len(comps))
}

func mm1Requests(n int, load float64, mean float64, seed uint64) []workload.Request {
	rng := sim.NewRNG(seed)
	arr := workload.NewPoissonArrivals(workload.MeanForLoad(load, mean, 1), rng)
	svc := workload.Exponential{M: mean, RNG: rng.Split()}
	return workload.Generate(n, 0, arr, svc)
}

func TestFCFSMatchesMM1Theory(t *testing.T) {
	// M/M/1 FCFS mean sojourn = 1/(mu - lambda). With mean service 1000 and
	// load 0.5: T = 1000/(1-0.5) = 2000.
	const n = 60000
	eng := sim.SoloShard(sim.NewEngine(nil))
	srv := NewFCFS(eng, 1, 0, nil)
	got := runMean(t, srv, eng, mm1Requests(n, 0.5, 1000, 42))
	want := 2000.0
	if math.Abs(got-want)/want > 0.06 {
		t.Fatalf("M/M/1 FCFS mean %v, theory %v", got, want)
	}
	if srv.done != n {
		t.Fatal("completion count")
	}
}

func TestPSMatchesMM1Theory(t *testing.T) {
	// M/M/1 PS has the same mean sojourn as FCFS: 1/(mu - lambda).
	const n = 60000
	eng := sim.SoloShard(sim.NewEngine(nil))
	srv := NewPS(eng, 1, 0, nil)
	got := runMean(t, srv, eng, mm1Requests(n, 0.5, 1000, 43))
	want := 2000.0
	if math.Abs(got-want)/want > 0.06 {
		t.Fatalf("M/M/1 PS mean %v, theory %v", got, want)
	}
	if len(srv.active) != 0 {
		t.Fatal("requests still active")
	}
}

func TestPSInsensitivity(t *testing.T) {
	// M/G/1-PS mean sojourn depends only on the service *mean* — the classic
	// insensitivity property. Exponential vs bimodal with equal means must
	// give (approximately) equal mean sojourn.
	const n, load = 60000, 0.6
	meanSvc := 3970.0 // bimodal 0.99*1000 + 0.01*298000 = 3970

	rng := sim.NewRNG(7)
	arr := workload.NewPoissonArrivals(workload.MeanForLoad(load, meanSvc, 1), rng)
	bim := workload.NewBimodal(1000, 298000, 0.99, rng.Split())
	reqsB := workload.Generate(n, 0, arr, bim)

	rng2 := sim.NewRNG(8)
	arr2 := workload.NewPoissonArrivals(workload.MeanForLoad(load, meanSvc, 1), rng2)
	exp := workload.Exponential{M: meanSvc, RNG: rng2.Split()}
	reqsE := workload.Generate(n, 0, arr2, exp)

	engB := sim.SoloShard(sim.NewEngine(nil))
	meanB := runMean(t, NewPS(engB, 1, 0, nil), engB, reqsB)
	engE := sim.SoloShard(sim.NewEngine(nil))
	meanE := runMean(t, NewPS(engE, 1, 0, nil), engE, reqsE)

	if math.Abs(meanB-meanE)/meanE > 0.15 {
		t.Fatalf("PS insensitivity violated: bimodal %v vs exponential %v", meanB, meanE)
	}
}

func TestFCFSHeadOfLineBlockingUnderHighVariability(t *testing.T) {
	// The paper's §4 claim: PS + thread-per-request beats FCFS for
	// high-variability service. Under a 99:1 bimodal, the FCFS p99 must be
	// far worse than PS p99 for *short* requests (head-of-line blocking).
	const n, load = 40000, 0.7
	meanSvc := 0.99*1000 + 0.01*100000

	gen := func(seed uint64) []workload.Request {
		rng := sim.NewRNG(seed)
		arr := workload.NewPoissonArrivals(workload.MeanForLoad(load, meanSvc, 1), rng)
		svc := workload.NewBimodal(1000, 100000, 0.99, rng.Split())
		return workload.Generate(n, 0, arr, svc)
	}

	p99 := func(srv QueueServer, eng *sim.Shard, reqs []workload.Request) int64 {
		h := metrics.NewHistogram()
		for _, c := range RunOpenLoop(eng, srv, reqs) {
			if c.Req.Demand == 1000 { // short requests only
				h.RecordCycles(c.Latency)
			}
		}
		return h.Quantile(0.99)
	}

	engF := sim.SoloShard(sim.NewEngine(nil))
	fcfs := p99(NewFCFS(engF, 1, 0, nil), engF, gen(11))
	engP := sim.SoloShard(sim.NewEngine(nil))
	ps := p99(NewPS(engP, 1, 0, nil), engP, gen(11))

	if fcfs < 3*ps {
		t.Fatalf("expected FCFS p99 >> PS p99 for shorts; got FCFS=%d PS=%d", fcfs, ps)
	}
}

func TestTimesliceApproachesFCFSWithHugeQuantum(t *testing.T) {
	reqs := mm1Requests(20000, 0.5, 1000, 13)
	engA := sim.SoloShard(sim.NewEngine(nil))
	fcfs := runMean(t, NewFCFS(engA, 1, 0, nil), engA, append([]workload.Request(nil), reqs...))
	engB := sim.SoloShard(sim.NewEngine(nil))
	ts := NewTimeslice(engB, 1, 1<<40, 0, nil)
	tsMean := runMean(t, ts, engB, append([]workload.Request(nil), reqs...))
	if math.Abs(fcfs-tsMean)/fcfs > 0.01 {
		t.Fatalf("huge-quantum timeslice %v != FCFS %v", tsMean, fcfs)
	}
}

func TestTimesliceSwitchCostHurts(t *testing.T) {
	reqs := mm1Requests(20000, 0.6, 3000, 17)
	run := func(switchCost sim.Cycles) float64 {
		eng := sim.SoloShard(sim.NewEngine(nil))
		srv := NewTimeslice(eng, 1, 1000, switchCost, nil)
		return runMean(t, srv, eng, append([]workload.Request(nil), reqs...))
	}
	free := run(0)
	costly := run(1200)
	if costly <= free {
		t.Fatalf("switch cost did not hurt: %v vs %v", costly, free)
	}
}

func TestTimesliceCountsSwitches(t *testing.T) {
	eng := sim.SoloShard(sim.NewEngine(nil))
	srv := NewTimeslice(eng, 1, 100, 10, nil)
	// One request of demand 250 = 3 slices.
	reqs := []workload.Request{{ID: 0, Arrival: 1, Demand: 250}}
	RunOpenLoop(eng, srv, reqs)
	if srv.sswaps != 3 || srv.done != 1 {
		t.Fatalf("switches=%d completed=%d", srv.sswaps, srv.done)
	}
}

func TestMultiServerFCFS(t *testing.T) {
	// Two simultaneous arrivals on 2 servers complete in parallel.
	eng := sim.SoloShard(sim.NewEngine(nil))
	srv := NewFCFS(eng, 2, 0, nil)
	reqs := []workload.Request{
		{ID: 0, Arrival: 1, Demand: 1000},
		{ID: 1, Arrival: 1, Demand: 1000},
	}
	comps := RunOpenLoop(eng, srv, reqs)
	for _, c := range comps {
		if c.Latency != 1000 {
			t.Fatalf("latency %v with free server", c.Latency)
		}
	}
}

func TestPSCapacityNoSharingBelowC(t *testing.T) {
	// With n <= C, everyone runs at full rate.
	eng := sim.SoloShard(sim.NewEngine(nil))
	srv := NewPS(eng, 4, 0, nil)
	var reqs []workload.Request
	for i := 0; i < 4; i++ {
		reqs = append(reqs, workload.Request{ID: i, Arrival: 1, Demand: 1000})
	}
	comps := RunOpenLoop(eng, srv, reqs)
	for _, c := range comps {
		if c.Latency != 1000 {
			t.Fatalf("latency %v, want 1000 (no sharing below capacity)", c.Latency)
		}
	}
}

func TestPSEqualSharingAboveC(t *testing.T) {
	// 2 equal requests on capacity 1 arriving together: each sees ~2x demand.
	eng := sim.SoloShard(sim.NewEngine(nil))
	srv := NewPS(eng, 1, 0, nil)
	reqs := []workload.Request{
		{ID: 0, Arrival: 1, Demand: 1000},
		{ID: 1, Arrival: 1, Demand: 1000},
	}
	comps := RunOpenLoop(eng, srv, reqs)
	for _, c := range comps {
		if c.Latency < 1990 || c.Latency > 2010 {
			t.Fatalf("latency %v, want ~2000", c.Latency)
		}
	}
}

func TestOverheadAppliedOncePerRequest(t *testing.T) {
	eng := sim.SoloShard(sim.NewEngine(nil))
	srv := NewFCFS(eng, 1, 500, nil)
	comps := RunOpenLoop(eng, srv, []workload.Request{{ID: 0, Arrival: 1, Demand: 1000}})
	if comps[0].Latency != 1500 {
		t.Fatalf("latency %v, want 1500", comps[0].Latency)
	}
	engP := sim.SoloShard(sim.NewEngine(nil))
	ps := NewPS(engP, 1, 70, nil)
	compsP := RunOpenLoop(engP, ps, []workload.Request{{ID: 0, Arrival: 1, Demand: 1000}})
	if compsP[0].Latency != 1070 {
		t.Fatalf("PS latency %v, want 1070", compsP[0].Latency)
	}
}

func TestServerNames(t *testing.T) {
	eng := sim.SoloShard(sim.NewEngine(nil))
	if NewFCFS(eng, 1, 0, nil).Name() != "legacy-fcfs" ||
		NewPS(eng, 1, 0, nil).Name() != "nocs-ps" ||
		NewTimeslice(eng, 1, 1, 0, nil).Name() != "legacy-timeslice" {
		t.Fatal("names")
	}
}

func TestRunOpenLoopPreservesUserCallback(t *testing.T) {
	eng := sim.SoloShard(sim.NewEngine(nil))
	userCalls := 0
	srv := NewFCFS(eng, 1, 0, func(Completion) { userCalls++ })
	comps := RunOpenLoop(eng, srv, []workload.Request{{ID: 0, Arrival: 1, Demand: 10}})
	if userCalls != 1 || len(comps) != 1 {
		t.Fatalf("userCalls=%d comps=%d", userCalls, len(comps))
	}
}

func TestRunOpenLoopUnknownServerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown server accepted")
		}
	}()
	type fake struct{ QueueServer }
	RunOpenLoop(sim.SoloShard(sim.NewEngine(nil)), fake{}, nil)
}

func TestClampsAndDefaults(t *testing.T) {
	eng := sim.SoloShard(sim.NewEngine(nil))
	if NewFCFS(eng, 0, 0, nil).K != 1 {
		t.Fatal("FCFS k clamp")
	}
	if NewPS(eng, -1, 0, nil).C != 1 {
		t.Fatal("PS c clamp")
	}
	ts := NewTimeslice(eng, 0, 0, 0, nil)
	if ts.K != 1 || ts.Quantum != 1 {
		t.Fatal("timeslice clamps")
	}
}
