// Package nocs_test holds the repository-level benchmark harness: one
// testing.B per table/figure in DESIGN.md §3. Each benchmark drives the same
// experiment code as `nocsim -exp <ID>`, so `go test -bench=.` regenerates
// every reported number.
//
// Benchmarks run the Quick configuration per iteration; the reported
// ns/op therefore measures the *simulator*, while the experiment's own
// tables (printed once per benchmark with -v via b.Log) report the
// *simulated* cycles that EXPERIMENTS.md quotes.
package nocs_test

import (
	"bytes"
	"testing"

	"nocs/internal/bench"
	"nocs/internal/machine"
	"nocs/internal/serve"
	"nocs/internal/sim"
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := bench.RunConfig{Seed: bench.DefaultConfig().Seed, Quick: true}
	var last string
	for i := 0; i < b.N; i++ {
		res, err := bench.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res.String()
	}
	if testing.Verbose() {
		b.Log("\n" + last)
	}
}

func BenchmarkT1_TDTPermissionCheck(b *testing.B)   { runExperiment(b, "T1") }
func BenchmarkT2_StateCapacity(b *testing.B)        { runExperiment(b, "T2") }
func BenchmarkF1_EventWakeup(b *testing.B)          { runExperiment(b, "F1") }
func BenchmarkF2_IOPathSweep(b *testing.B)          { runExperiment(b, "F2") }
func BenchmarkF3_SyscallMechanisms(b *testing.B)    { runExperiment(b, "F3") }
func BenchmarkF4_VMExit(b *testing.B)               { runExperiment(b, "F4") }
func BenchmarkF5_FPKernel(b *testing.B)             { runExperiment(b, "F5") }
func BenchmarkF6_MicrokernelIPC(b *testing.B)       { runExperiment(b, "F6") }
func BenchmarkF7_TailLatency(b *testing.B)          { runExperiment(b, "F7") }
func BenchmarkF8_StartLatencyByTier(b *testing.B)   { runExperiment(b, "F8") }
func BenchmarkF9_PriorityScheduling(b *testing.B)   { runExperiment(b, "F9") }
func BenchmarkF10_DistributedFanout(b *testing.B)   { runExperiment(b, "F10") }
func BenchmarkF11_UntrustedHypervisor(b *testing.B) { runExperiment(b, "F11") }
func BenchmarkF12_StoragePath(b *testing.B)         { runExperiment(b, "F12") }
func BenchmarkF13_CrossCoreWakeup(b *testing.B)     { runExperiment(b, "F13") }
func BenchmarkF14_ContainerProxy(b *testing.B)      { runExperiment(b, "F14") }
func BenchmarkF15_SchedulerReaction(b *testing.B)   { runExperiment(b, "F15") }
func BenchmarkF16_NetstackEcho(b *testing.B)        { runExperiment(b, "F16") }
func BenchmarkA1_SlotSweep(b *testing.B)            { runExperiment(b, "A1") }
func BenchmarkA2_NoDMAMonitor(b *testing.B)         { runExperiment(b, "A2") }
func BenchmarkA3_PrefetchAblation(b *testing.B)     { runExperiment(b, "A3") }
func BenchmarkA4_StatePinning(b *testing.B)         { runExperiment(b, "A4") }

// BenchmarkCoreInstructionRate measures raw simulator speed: simulated
// instructions per host second on a tight ALU loop. This is the number that
// bounds how big an experiment the harness can afford.
func BenchmarkCoreInstructionRate(b *testing.B) {
	benchmarkInstructionRate(b)
}

// BenchmarkServeCell builds and drains one nocs serving cell (Poisson
// arrivals, load 0.8, 1000 connections) on the serial oracle. Every request
// crosses several monitor arm/wait/wake cycles, so its allocs/op, gated in
// scripts/ci.sh, catches a monitor or netstack hot path that allocates again.
func BenchmarkServeCell(b *testing.B) {
	cfg := serve.Config{
		Conns: 1000, Load: 0.8, Arrival: serve.ArrivalPoisson, Flavor: serve.FlavorNocs,
		Seed: bench.DefaultConfig().Seed, Workers: 1,
	}
	for i := 0; i < b.N; i++ {
		c, err := serve.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeNew builds, without running, one nocs serving cell of the
// benchmark's size (5,000 connections, Poisson arrivals, load 0.8). Its
// allocs/op, gated in scripts/ci.sh, catches construction quietly
// regrowing: every core's caches, contexts and tables.
func BenchmarkServeNew(b *testing.B) {
	cfg := serve.Config{
		Conns: 5000, Load: 0.8, Arrival: serve.ArrivalPoisson, Flavor: serve.FlavorNocs,
		Seed: bench.DefaultConfig().Seed, Workers: 1,
	}
	for i := 0; i < b.N; i++ {
		if _, err := serve.New(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// snapshotBenchMachine builds a warmed-up sharded endurance machine plus one
// serialized checkpoint of it, the fixture the snapshot benchmarks share:
// cores cores on as many shards, run to cycle at of a 2·at horizon.
func snapshotBenchMachine(b *testing.B, cores int, at sim.Cycles) (*machine.Machine, []byte) {
	b.Helper()
	m, err := bench.BuildEndurance(bench.RunConfig{Seed: 1}, snapshotBenchConfig(cores, at))
	if err != nil {
		b.Fatal(err)
	}
	m.RunUntil(at)
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		b.Fatal(err)
	}
	return m, buf.Bytes()
}

func snapshotBenchConfig(cores int, at sim.Cycles) bench.EnduranceConfig {
	return bench.EnduranceConfig{Cores: cores, Shards: cores, Workers: 1, Horizon: 2 * at}
}

// benchmarkSnapshotEncode measures one checkpoint of the fixture machine
// into a reused buffer, as the ring workload takes them: MB/s is checkpoint
// bytes per second, B/op what one save allocates.
func benchmarkSnapshotEncode(b *testing.B, cores int, at sim.Cycles) {
	m, ckpt := snapshotBenchMachine(b, cores, at)
	var buf bytes.Buffer
	b.SetBytes(int64(len(ckpt)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := m.Snapshot(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkSnapshotRestore measures the inverse path: reading the fixture's
// checkpoint and restoring it into a second machine of the same topology
// that has not run, then into the same machine again on later iterations.
func benchmarkSnapshotRestore(b *testing.B, cores int, at sim.Cycles) {
	_, ckpt := snapshotBenchMachine(b, cores, at)
	tgt, err := bench.BuildEndurance(bench.RunConfig{Seed: 1}, snapshotBenchConfig(cores, at))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(ckpt)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tgt.Restore(bytes.NewReader(ckpt)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotEncode and BenchmarkSnapshotRestore checkpoint a 4-core
// machine at cycle 30,000. scripts/ci.sh gates their allocs/op against
// scripts/alloc_baseline.txt, and scripts/bench.sh records that allocs/op
// in each BENCH_N.json; neither keeps their ns/op or MB/s.
func BenchmarkSnapshotEncode(b *testing.B)  { benchmarkSnapshotEncode(b, 4, 30_000) }
func BenchmarkSnapshotRestore(b *testing.B) { benchmarkSnapshotRestore(b, 4, 30_000) }

// BenchmarkRingSnapshotEncode and BenchmarkRingSnapshotRestore checkpoint
// the ring workload's machine, 64 cores on 64 shards, at cycle 500,000: a
// 2.47 MB checkpoint, almost all of it the caches' per-set counts.
func BenchmarkRingSnapshotEncode(b *testing.B)  { benchmarkSnapshotEncode(b, 64, 500_000) }
func BenchmarkRingSnapshotRestore(b *testing.B) { benchmarkSnapshotRestore(b, 64, 500_000) }
