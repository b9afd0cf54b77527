package bench

import (
	"runtime"
	"strings"
	"testing"

	"nocs/internal/serve"
)

// ringRun builds and runs one token-ring machine and returns its summary.
func ringRun(t *testing.T, ec EnduranceConfig) string {
	t.Helper()
	m, err := BuildEndurance(RunConfig{Seed: 1}, ec)
	if err != nil {
		t.Fatal(err)
	}
	m.RunUntil(ec.Horizon)
	if err := m.Fatal(); err != nil {
		t.Fatal(err)
	}
	if ringSeen(m, 0) == 0 {
		t.Fatal("token ring never advanced")
	}
	return EnduranceSummary(ec, m)
}

// TestScaleShardSweepDeterminism pins the acceptance criterion on the full
// machine model: at shard counts 1, 2, 4, and 8 the sharded summary
// (per-core tokens and retired instructions) is byte-identical to the
// one-worker oracle at several worker counts.
func TestScaleShardSweepDeterminism(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 8} {
		ec := EnduranceConfig{Cores: 8, Shards: shards, Workers: 1, Horizon: 60_000}
		oracle := ringRun(t, ec)
		for _, workers := range []int{2, 4} {
			if workers > shards {
				continue
			}
			ec.Workers = workers
			if got := ringRun(t, ec); got != oracle {
				t.Fatalf("shards=%d workers=%d: summary differs from serial oracle\noracle:\n%s\ngot:\n%s",
					shards, workers, oracle, got)
			}
		}
	}
}

// TestScaleContendedWakes drives a dense cross-shard monitor-wake workload
// through the worker pool — every core's pacer is woken across shard
// boundaries continuously. Run under `go test -race` this is the data-race
// gate for the sharded path (wired into scripts/ci.sh).
func TestScaleContendedWakes(t *testing.T) {
	ec := EnduranceConfig{Cores: 8, Shards: 8, Workers: 1, Horizon: 80_000}
	oracle := ringRun(t, ec)
	ec.Workers = 4
	if got := ringRun(t, ec); got != oracle {
		t.Fatalf("contended run diverged from oracle:\n%s\nvs\n%s", oracle, got)
	}
}

// TestRunScaleExperiment exercises S1 through the registry, including its
// internal serial-vs-sharded byte-identity check.
func TestRunScaleExperiment(t *testing.T) {
	res, err := Run("S1", RunConfig{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 1 {
		t.Fatalf("want 1 table, got %d", len(res.Tables))
	}
	for _, want := range []string{"serial (oracle)", "sharded"} {
		if s := res.Tables[0].String(); !strings.Contains(s, want) {
			t.Fatalf("table missing %q:\n%s", want, s)
		}
	}
	for _, name := range []string{"speedup", "instrs_per_sec", "serial_wall", "sharded_wall"} {
		if v := metric(t, res, name); v <= 0 {
			t.Fatalf("metric %s = %v, want > 0", name, v)
		}
	}
	if w := metric(t, res, "workers"); w < 2 {
		t.Fatalf("sharded pass used %v workers, want >= 2", w)
	}
}

// TestShardedPassOnOneCPU: on a 1-CPU host the sharded pass of every
// identity check must still run at least two workers. A one-worker
// machine is the serial oracle, which would compare the oracle with
// itself.
func TestShardedPassOnOneCPU(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	m, err := BuildEndurance(RunConfig{}, scaleConfig(true, shardedWorkers()))
	if err != nil {
		t.Fatal(err)
	}
	if err := requireSharded(m); err != nil {
		t.Fatalf("S1: %v", err)
	}
	if _, err := Run("S1", RunConfig{Seed: 1, Quick: true}); err != nil {
		t.Fatal(err)
	}
	lc := lockConfig{TotalAcq: 16, Deadline: 10_000_000}
	if _, workers, _, err := runLockShardSweep(lc); err != nil || workers < 2 {
		t.Fatalf("L1 shard sweep: workers=%d err=%v", workers, err)
	}
	cell := serve.Config{Conns: 200, Flavor: serve.FlavorLegacy, Seed: 1}
	if _, _, err := runServeCell(cell, shardedWorkers()); err != nil {
		t.Fatalf("SV1 sharded cell: %v", err)
	}
}

// metric returns the named metric of res, failing the test if absent.
func metric(t *testing.T, res *Result, name string) float64 {
	t.Helper()
	for _, m := range res.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	t.Fatalf("%s has no metric %q: %+v", res.ID, name, res.Metrics)
	return 0
}
