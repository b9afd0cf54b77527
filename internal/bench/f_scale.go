package bench

import (
	"fmt"
	"runtime"
	"time"

	"nocs/internal/metrics"
)

// S1 — the scaling experiment (DESIGN.md §12). E1's token-ring machine
// (BuildEndurance: per core, a spinning compute thread plus a pacer parked
// in monitor/mwait, with a token hopping cores by cross-shard remote
// writes — the cheapest cross-core interaction the lookahead is derived
// from) runs twice over the same horizon: once on one worker, the
// determinism oracle, and once with one worker per host CPU. The two summaries must match byte for byte before any wall time
// is reported.

func init() {
	Register(&Experiment{
		ID:    "S1",
		Suite: SuiteSystem,
		Title: "sharded scheduler scaling",
		Claim: "one experiment can use every host CPU without giving up determinism",
		Run:   runScale,
	})
}

// scaleConfig sizes S1: 64 cores over 400k cycles, or 16 cores over 100k
// cycles when quick.
func scaleConfig(quick bool, workers int) EnduranceConfig {
	if quick {
		return EnduranceConfig{Cores: 16, Shards: 16, Workers: workers, Horizon: 100_000}
	}
	return EnduranceConfig{Cores: 64, Shards: 64, Workers: workers, Horizon: 400_000}
}

// scalePass is one timed run of the S1 machine.
type scalePass struct {
	summary string
	wall    time.Duration
	retired uint64
	hops    int64
}

func runScalePass(cfg RunConfig, ec EnduranceConfig) (scalePass, error) {
	m, err := BuildEndurance(cfg, ec)
	if err != nil {
		return scalePass{}, err
	}
	if ec.Workers > 1 {
		if err := requireSharded(m); err != nil {
			return scalePass{}, err
		}
	}
	t0 := time.Now()
	m.RunUntil(ec.Horizon)
	wall := time.Since(t0)
	if err := m.Fatal(); err != nil {
		return scalePass{}, err
	}
	return scalePass{EnduranceSummary(ec, m), wall, m.Retired(), ringHops(m, ec.Cores)}, nil
}

func runScale(cfg RunConfig) (*Result, error) {
	serial, sharded := scaleConfig(cfg.Quick, 1), scaleConfig(cfg.Quick, shardedWorkers())
	// Warm-up pass (untimed, half horizon): page in the code and heap so the
	// serial-first measurement order doesn't hand the sharded run a warm
	// cache and inflate the speedup.
	warm := serial
	warm.Horizon /= 2
	if _, err := runScalePass(cfg, warm); err != nil {
		return nil, fmt.Errorf("S1 warm-up: %w", err)
	}
	ser, err := runScalePass(cfg, serial)
	if err != nil {
		return nil, fmt.Errorf("S1 serial: %w", err)
	}
	par, err := runScalePass(cfg, sharded)
	if err != nil {
		return nil, fmt.Errorf("S1 sharded: %w", err)
	}
	if ser.summary != par.summary {
		return nil, fmt.Errorf("S1: DETERMINISM VIOLATION — serial and sharded summaries differ (hashes %x vs %x)",
			summaryHash(ser.summary), summaryHash(par.summary))
	}
	if par.retired == 0 || par.hops == 0 {
		return nil, fmt.Errorf("S1: degenerate run (retired=%d hops=%d)", par.retired, par.hops)
	}

	speedup := ser.wall.Seconds() / par.wall.Seconds()
	ips := float64(par.retired) / par.wall.Seconds()
	t := metrics.NewTable(
		fmt.Sprintf("one machine across real CPUs (%d cores, %d shards, horizon %d cycles)",
			sharded.Cores, sharded.Shards, sharded.Horizon),
		"scheduler", "workers", "wall ms", "speedup", "Minstr/s")
	t.Row("serial (oracle)", 1, ser.wall.Seconds()*1e3, 1.0,
		float64(ser.retired)/ser.wall.Seconds()/1e6)
	t.Row("sharded", sharded.Workers, par.wall.Seconds()*1e3, speedup, ips/1e6)

	return &Result{
		Tables: []*metrics.Table{t},
		Notes: []string{
			fmt.Sprintf("outputs byte-identical (fnv64a %016x): %d ring hops, %d instructions retired",
				summaryHash(par.summary), par.hops, par.retired),
			fmt.Sprintf("host GOMAXPROCS=%d — speedup is bounded by real CPUs, not by the scheduler", runtime.GOMAXPROCS(0)),
		},
		Metrics: []Metric{
			{"cores", "cores", float64(sharded.Cores)},
			{"workers", "goroutines", float64(sharded.Workers)},
			{"serial_wall", "ms", ser.wall.Seconds() * 1e3},
			{"sharded_wall", "ms", par.wall.Seconds() * 1e3},
			{"speedup", "x", speedup},
			{"instrs_per_sec", "instrs/s", ips},
		},
	}, nil
}
