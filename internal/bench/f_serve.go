package bench

import (
	"fmt"

	"nocs/internal/metrics"
	"nocs/internal/serve"
)

// SV1 — datacenter-scale serving scenarios (DESIGN.md §15). Each cell of
// the sweep grid is one multi-tier serving cluster from internal/serve: an
// LB tier fanning requests out over the netstack to a pool of app servers
// (thread-per-request on the PR-9 lock primitives, nocs vs legacy flavor)
// backed by a storage tier. The grid crosses offered load — including
// deliberate overload — with Poisson and bursty Pareto arrivals, and every
// cell runs twice: once on the serial oracle and once sharded, with
// byte-identity of the full observable state required before any number is
// reported. The conservation invariant (generated == completed + refused +
// in-flight) is audited inside serve.Run on every chunk.

func init() {
	Register(&Experiment{
		ID:    "SV1",
		Suite: SuiteSystem,
		Title: "datacenter-scale serving scenarios",
		Claim: "a serving cell built on nocs threads degrades gracefully under overload; the legacy flavor's tail collapses first",
		Run: func(cfg RunConfig) (*Result, error) {
			return runServe(cfg, defaultServeConfig(cfg.Quick))
		},
	})
}

// serveConfig sizes the SV1 sweep; every other cell parameter takes its
// serve.Config default.
type serveConfig struct {
	// Loads are the offered-load points (fraction of pool capacity; values
	// above 1 are deliberate overload).
	Loads []float64
	// Arrivals are the interarrival processes to sweep.
	Arrivals []string
	// Flavors are the threading models to sweep.
	Flavors []string
	// Conns is the connection count per cell.
	Conns int
}

// defaultServeConfig returns the standard SV1 sweep — 10^5 connections per
// cell across load {0.5, 0.8, 0.95, 1.1, 1.3} × {poisson, pareto} ×
// {nocs, legacy} — or a CI-sized one when quick is set.
func defaultServeConfig(quick bool) serveConfig {
	sc := serveConfig{
		Loads:    []float64{0.5, 0.8, 0.95, 1.1, 1.3},
		Arrivals: []string{serve.ArrivalPoisson, serve.ArrivalPareto},
		Flavors:  []string{serve.FlavorNocs, serve.FlavorLegacy},
		Conns:    100_000,
	}
	if quick {
		// One saturated and one overload point keep the smoke run honest:
		// the refusal path must still fire.
		sc.Loads = []float64{0.8, 1.3}
		sc.Conns = 3000
	}
	return sc
}

// runServeCell runs one grid cell to completion with the given worker count
// and returns its summary and stats.
func runServeCell(c serve.Config, workers int) (string, serve.Stats, error) {
	c.Workers = workers
	cl, err := serve.New(c)
	if err != nil {
		return "", serve.Stats{}, err
	}
	if workers > 1 {
		if err := requireSharded(cl.Machine()); err != nil {
			return "", serve.Stats{}, err
		}
	}
	if err := cl.Run(); err != nil {
		return "", serve.Stats{}, err
	}
	return cl.Summary(), cl.CollectStats(), nil
}

// runServe executes the SV1 sweep. Every cell runs under the serial oracle
// and then sharded; it fails (rather than report a number) if the two runs'
// summaries differ in any byte, if conservation breaks, or if no overload
// cell ever refused a request.
func runServe(cfg RunConfig, sc serveConfig) (*Result, error) {
	t := metrics.NewTable(
		fmt.Sprintf("serving cell: %d conns, serial-vs-sharded byte-identical per cell", sc.Conns),
		"flavor", "arrival", "load", "gen", "done", "refused", "refused conns", "peak",
		"p50", "p99", "p999", "mean", "goodput kr/Gcyc", "lock waits",
		"send busy", "ring stalls", "pump stalls", "dram starts", "hash")
	var overloadRefused uint64
	for _, flavor := range sc.Flavors {
		for _, arrival := range sc.Arrivals {
			for _, load := range sc.Loads {
				base := serve.Config{
					Conns:   sc.Conns,
					Load:    load,
					Arrival: arrival,
					Flavor:  flavor,
					Seed:    cfg.Seed,
				}
				cell := fmt.Sprintf("%s/%s/%.2f", flavor, arrival, load)
				serSum, _, err := runServeCell(base, 1)
				if err != nil {
					return nil, fmt.Errorf("SV1 %s serial: %w", cell, err)
				}
				parSum, st, err := runServeCell(base, shardedWorkers())
				if err != nil {
					return nil, fmt.Errorf("SV1 %s sharded: %w", cell, err)
				}
				if serSum != parSum {
					return nil, fmt.Errorf("SV1 %s: DETERMINISM VIOLATION — serial and sharded summaries differ (hashes %x vs %x)",
						cell, summaryHash(serSum), summaryHash(parSum))
				}
				if st.Generated != st.Completed+st.Refused {
					return nil, fmt.Errorf("SV1 %s: conservation broke after drain — generated %d != completed %d + refused %d",
						cell, st.Generated, st.Completed, st.Refused)
				}
				if st.Completed == 0 {
					return nil, fmt.Errorf("SV1 %s: degenerate cell — nothing completed", cell)
				}
				if load > 1 {
					overloadRefused += st.Refused
				}
				t.Row(flavor, arrival, load, st.Generated, st.Completed, st.Refused,
					st.RefusedConns, st.OpenPeak, st.P50, st.P99, st.P999, st.MeanLat,
					st.GoodputKRPS, st.LockWaits, st.SendBusy, st.RingStalls,
					st.PumpStalls, st.DRAMStarts, fmt.Sprintf("%016x", summaryHash(parSum)))
			}
		}
	}
	if overloadRefused == 0 {
		return nil, fmt.Errorf("SV1: no overload cell refused a request — admission control never engaged across the sweep")
	}

	return &Result{
		Tables: []*metrics.Table{t},
		Notes: []string{
			fmt.Sprintf("%d cells, each byte-identical between the serial oracle and the sharded scheduler", t.Len()),
			"conservation (generated == completed + refused + in-flight) audited every chunk of every run",
			fmt.Sprintf("overload cells refused %d requests through the admission window — the backpressure path, not a drop counter", overloadRefused),
		},
		Metrics: []Metric{
			{"cells", "cells", float64(t.Len())},
			{"overload_refused", "requests", float64(overloadRefused)},
		},
	}, nil
}
