package bench

import (
	"fmt"
	"slices"

	"nocs/internal/kernel"
	"nocs/internal/metrics"
	"nocs/internal/sim"
	"nocs/internal/trace"
	"nocs/internal/workload"
)

func init() {
	Register(&Experiment{
		ID:    "F7",
		Title: "Tail latency under load: thread-per-request PS vs legacy disciplines",
		Claim: "PS scheduling with thread-per-request provides superior performance for server workloads with high execution-time variability (§4)",
		Run:   runF7,
	})
	Register(&Experiment{
		ID:    "A1",
		Title: "Ablation: SMT slots and hardware-thread pool size",
		Claim: "a small number of hyperthreads multiplexes additional runnable hardware threads; 10s of threads is a meaningful step, more is better (§1, §4)",
		Run:   runA1,
	})
}

const (
	f7MeanService = 10000.0 // cycles (≈3.3 µs @3GHz)
	f7Servers     = 2       // SMT slots / legacy logical cores
	// Legacy per-request overhead: interrupt delivery + scheduler +
	// context switch (see DESIGN.md cost table).
	f7LegacyOverhead = sim.Cycles(2200)
	// Nocs per-request overhead: hardware-thread start from the L3 state
	// tier, the conservative choice.
	f7NocsOverhead = sim.Cycles(70)
	f7Quantum      = sim.Cycles(5000)
	f7Switch       = sim.Cycles(1200)
)

// The bimodal distribution's two classes: 99% short, 1% long, same mean:
// 0.99*s + 0.01*l = 10000 with l = 100*s  =>  s ≈ 5025, l ≈ 502500.
const (
	f7Short = sim.Cycles(5025)
	f7Long  = sim.Cycles(502500)
)

// f7Dist builds the named service distribution with the given RNG.
func f7Dist(name string, rng *sim.RNG) workload.Service {
	switch name {
	case "exponential":
		return workload.Exponential{M: f7MeanService, RNG: rng}
	case "bimodal":
		return workload.NewBimodal(f7Short, f7Long, 0.99, rng)
	}
	panic("unknown distribution " + name)
}

// f7Train returns the request train drawn from seed: Poisson arrivals at
// the given load on slots servers, service from the named distribution.
func f7Train(dist string, load float64, slots int, seed uint64) *workload.Source {
	rng := sim.NewRNG(seed)
	arr := workload.NewPoissonArrivals(workload.MeanForLoad(load, f7MeanService, slots), rng)
	return workload.NewSource(0, arr, f7Dist(dist, rng.Split()))
}

// latencies are one run's sojourn-time histograms: every request, and the
// short class (demand ≤ f7Short), which the 1% long requests cannot set.
type latencies struct{ all, short *metrics.Histogram }

// runDiscipline streams n requests from src through a server and returns
// their latency histograms. When cfg carries a tracer, the server's request
// spans land in a process group named by label (e.g.
// "F7/bimodal/0.9/nocs-ps").
func runDiscipline(cfg RunConfig, label string, mk func(eng *sim.Shard) kernel.QueueServer, src kernel.RequestSource, n int) latencies {
	eng := sim.SoloShard(sim.NewEngine(nil))
	srv := mk(eng)
	if cfg.Tracer.Enabled() {
		if t, ok := srv.(interface {
			EnableTrace(*trace.Tracer, string)
		}); ok {
			t.EnableTrace(cfg.Tracer, label)
		}
	}
	h := latencies{metrics.NewHistogram(), metrics.NewHistogram()}
	kernel.RunStream(eng, srv, src, n, func(c kernel.Completion) {
		h.all.RecordCycles(c.Latency)
		if c.Req.Demand <= f7Short {
			h.short.RecordCycles(c.Latency)
		}
	})
	return h
}

func runF7(cfg RunConfig) (*Result, error) {
	n := 40000
	if cfg.Quick {
		n = 4000
	}
	loads := []float64{0.3, 0.5, 0.7, 0.8, 0.9}
	dists := []string{"exponential", "bimodal"}
	disciplines := []struct {
		name string
		mk   func(eng *sim.Shard) kernel.QueueServer
	}{
		{"legacy-fcfs", func(eng *sim.Shard) kernel.QueueServer {
			return kernel.NewFCFS(eng, f7Servers, f7LegacyOverhead, nil)
		}},
		{"legacy-timeslice", func(eng *sim.Shard) kernel.QueueServer {
			return kernel.NewTimeslice(eng, f7Servers, f7Quantum, f7Switch, nil)
		}},
		{"nocs-ps", func(eng *sim.Shard) kernel.QueueServer {
			return kernel.NewPS(eng, f7Servers, f7NocsOverhead, nil)
		}},
	}

	// Each (distribution, load) pair is an isolated sweep point: its own
	// seed, request trace, and one engine per discipline. Points execute via
	// ForEachPoint (possibly concurrently) and land in index-addressed
	// slots, so the table rows come out in the same order regardless.
	type f7Row struct {
		p50, p99, p999 int64
		mean           float64
		shortP99       int64
	}
	rows := make([][]f7Row, len(dists)*len(loads))
	err := ForEachPoint(cfg, len(rows), func(pt int) error {
		dist := dists[pt/len(loads)]
		load := loads[pt%len(loads)]
		seed := cfg.Seed + uint64(load*1000)
		out := make([]f7Row, len(disciplines))
		for di, d := range disciplines {
			h := runDiscipline(cfg, fmt.Sprintf("F7/%s/%.1f/%s", dist, load, d.name), d.mk,
				f7Train(dist, load, f7Servers, seed), n)
			p50, p99, p999, mean := h.all.Summary()
			out[di] = f7Row{p50, p99, p999, mean, h.short.Quantile(0.99)}
		}
		rows[pt] = out
		return nil
	})
	if err != nil {
		return nil, err
	}

	var tables []*metrics.Table
	for dj, dist := range dists {
		t := metrics.NewTable(
			fmt.Sprintf("sojourn time, %s service (mean %.0f cycles), %d servers", dist, f7MeanService, f7Servers),
			"load", "discipline", "p50", "p99", "p99.9", "mean")
		for lj, load := range loads {
			for di, d := range disciplines {
				r := rows[dj*len(loads)+lj][di]
				t.Row(load, d.name, r.p50, r.p99, r.p999, r.mean)
			}
		}
		tables = append(tables, t)
	}

	res := &Result{Tables: tables}
	// Bimodal service at load 0.8; disciplines[0] is FCFS and [2] is PS. The
	// claims are stated on the short class: over all requests, the 1% long
	// ones can set both p99s.
	at08 := rows[slices.Index(dists, "bimodal")*len(loads)+slices.Index(loads, 0.8)]
	fcfs, ps := at08[0].shortP99, at08[2].shortP99
	res.check("bimodal FCFS short-request p99 ≥ 3× PS short-request p99 at load 0.8", fcfs >= 3*ps,
		"FCFS short p99 %d, PS short p99 %d", fcfs, ps)
	res.check("bimodal PS short-request p99 ≤ 20× short service at load 0.8", ps <= 20*int64(f7Short),
		"PS short p99 %d, short service %d", ps, f7Short)
	res.Notes = append(res.Notes,
		"for exponential service the disciplines are close; under the 99:1 bimodal, FCFS p99 explodes from head-of-line blocking while PS thread-per-request holds — the §4 claim",
		"timeslicing approximates PS but pays a context switch per quantum")
	return res, nil
}

func runA1(cfg RunConfig) (*Result, error) {
	n := 30000
	if cfg.Quick {
		n = 3000
	}
	const load = 0.7

	// Both sweeps run point-parallel: each point redraws its request train
	// from the master seed and runs on a private engine.
	slotsList := []int{1, 2, 4, 8}
	slotsH := make([]*metrics.Histogram, len(slotsList))
	if err := ForEachPoint(cfg, len(slotsList), func(i int) error {
		slots := slotsList[i]
		slotsH[i] = runDiscipline(cfg, fmt.Sprintf("A1/slots/%d", slots), func(eng *sim.Shard) kernel.QueueServer {
			return kernel.NewPS(eng, slots, f7NocsOverhead, nil)
		}, f7Train("bimodal", load, slots, cfg.Seed), n).all
		return nil
	}); err != nil {
		return nil, err
	}
	slotsT := metrics.NewTable(
		fmt.Sprintf("PS tail latency vs SMT slots (bimodal, load %.1f per slot)", load),
		"slots", "p50", "p99", "p99.9")
	for i, slots := range slotsList {
		h := slotsH[i]
		slotsT.Row(slots, h.Quantile(0.5), h.Quantile(0.99), h.Quantile(0.999))
	}

	pools := []int{4, 8, 16, 64, 1024}
	poolH := make([]latencies, len(pools))
	if err := ForEachPoint(cfg, len(pools), func(i int) error {
		pool := pools[i]
		poolH[i] = runDiscipline(cfg, fmt.Sprintf("A1/pool/%d", pool), func(eng *sim.Shard) kernel.QueueServer {
			s := kernel.NewPS(eng, f7Servers, f7NocsOverhead, nil)
			s.MaxActive = pool
			return s
		}, f7Train("bimodal", load, f7Servers, cfg.Seed), n)
		return nil
	}); err != nil {
		return nil, err
	}
	poolT := metrics.NewTable(
		"PS tail latency vs hardware-thread pool size (2 slots; overflow queues FCFS)",
		"hw threads", "p50", "p99", "p99.9")
	for i, pool := range pools {
		h := poolH[i].all
		poolT.Row(pool, h.Quantile(0.5), h.Quantile(0.99), h.Quantile(0.999))
	}

	res := &Result{Tables: []*metrics.Table{slotsT, poolT}}
	small, large := poolH[0].short.Quantile(0.99), poolH[len(pools)-1].short.Quantile(0.99)
	res.check("1024-thread pool short-request p99 < 4-thread pool short-request p99", large < small,
		"1024 threads short p99 %d, 4 threads short p99 %d", large, small)
	res.Notes = append(res.Notes,
		"with few hardware threads the pool saturates behind long requests and FCFS-style blocking returns — the paper's case for 10s–1000s of threads per core",
		"more SMT slots shorten the tail by serving long requests concurrently with shorts")
	return res, nil
}
