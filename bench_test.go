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

// snapshotBenchMachine builds a warmed-up sharded endurance machine plus one
// serialized checkpoint of it, the fixture both snapshot benchmarks share.
func snapshotBenchMachine(b *testing.B) (*machine.Machine, []byte) {
	b.Helper()
	cfg := bench.RunConfig{Seed: 1}
	ec := bench.EnduranceConfig{Cores: 4, Shards: 4, Workers: 1, Horizon: 60_000}
	m, err := bench.BuildEndurance(cfg, ec)
	if err != nil {
		b.Fatal(err)
	}
	m.RunUntil(30_000)
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		b.Fatal(err)
	}
	return m, buf.Bytes()
}

// BenchmarkSnapshotEncode measures checkpoint serialization throughput on a
// warmed-up sharded machine: MB/s is the reported bytes-per-second, ns/op is
// the cost of one checkpoint (scripts/bench.sh records both in BENCH_4.json).
func BenchmarkSnapshotEncode(b *testing.B) {
	m, ckpt := snapshotBenchMachine(b)
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

// BenchmarkSnapshotRestore measures the inverse path: decoding a checkpoint
// and rebuilding full machine state into an existing same-topology machine.
func BenchmarkSnapshotRestore(b *testing.B) {
	_, ckpt := snapshotBenchMachine(b)
	tgt, err := bench.BuildEndurance(bench.RunConfig{Seed: 1},
		bench.EnduranceConfig{Cores: 4, Shards: 4, Workers: 1, Horizon: 60_000})
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
