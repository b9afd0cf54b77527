package bench

import (
	"strconv"
	"strings"
	"testing"

	"nocs/internal/asm"
	"nocs/internal/core"
	"nocs/internal/hwthread"
	"nocs/internal/machine"
	"nocs/internal/mem"
	"nocs/internal/sim"
	nsync "nocs/internal/sync"
)

// buildLockChain boots a 4-core machine where each core runs 4 workers
// contending on a per-core mcs/nocs lock — but every core's workers start
// parked in mwait on a gate word, and the last worker to finish on core i
// opens core i+1's gate with a cross-shard RemoteWrite. The wakeup that
// starts each core's contention storm therefore crosses a shard boundary,
// which is the path the worker pool must deliver deterministically.
func buildLockChain(shards, workers int) (*machine.Machine, []*lockRecorder, error) {
	const cores, perCore, iters = 4, 4, 4
	m := machine.New(
		machine.WithCores(cores),
		machine.WithShards(shards),
		machine.WithWorkers(workers),
		machine.WithThreads(perCore),
		machine.WithSMTSlots(2),
	)
	l, err := nsync.NewLock(nsync.MCS, nsync.Nocs, false)
	if err != nil {
		return nil, nil, err
	}

	// Per-worker program: park on the gate, then run the contended loop and
	// FAA a done counter; the last finisher fires the relay native.
	g := nsync.NewGen("chain")
	r := l1Regs()
	g.Label("entry")
	gl, gs := g.L("gate"), g.L("gated")
	g.Label(gl)
	g.I("monitor r13")
	g.I("ld r1, [r13+0]")
	g.I("bne r1, r8, %s", gs)
	g.I("mwait")
	g.I("jmp %s", gl)
	g.Label(gs)
	g.I("movi r9, %d", iters)
	loop, done := g.L("loop"), g.L("done")
	g.Label(loop)
	g.I("beq r9, r8, %s", done)
	g.I("native %s", l1Enter)
	l.EmitAcquire(g, r)
	g.I("native %s", l1Acquired)
	g.I("ld r5, [r11+0]")
	g.I("addi r5, r5, 1")
	g.I("st [r11+0], r5")
	g.I("native %s", l1Release)
	l.EmitRelease(g, r)
	g.I("addi r9, r9, -1")
	g.I("jmp %s", loop)
	g.Label(done)
	g.I("movi r6, 1")
	g.I("faa r5, [r14+0], r6")
	skip := g.L("skip")
	g.I("movi r6, %d", perCore-1)
	g.I("bne r5, r6, %s", skip)
	g.I("native l1.relay")
	g.Label(skip)
	g.I("halt")
	prog, err := asm.Assemble("l1-chain", g.Source())
	if err != nil {
		return nil, nil, err
	}

	recs := make([]*lockRecorder, cores)
	for i := 0; i < cores; i++ {
		i := i
		c := m.Core(i)
		recs[i] = newLockRecorder(perCore, false)
		registerLockNatives(c, recs[i])
		off := int64(i) * l1CoreStride
		next := (i + 1) % cores
		nextGate := l1LockBase + int64(next)*l1CoreStride + 0x800
		c.RegisterNative("l1.relay", func(c *core.Core, t *hwthread.Context) sim.Cycles {
			m.RemoteWrite(m.ShardOfCore(i), m.ShardOfCore(next), nextGate, 1, 0)
			return 0
		})
		for p := 0; p < perCore; p++ {
			pt := hwthread.PTID(p)
			if err := c.BindProgram(pt, prog, "entry"); err != nil {
				return nil, nil, err
			}
			ctx := c.Threads().Context(pt)
			ctx.Regs.GPR[8] = 0
			ctx.Regs.GPR[10] = l1LockBase + off
			ctx.Regs.GPR[11] = l1DataBase + off
			ctx.Regs.GPR[12] = int64(p)
			ctx.Regs.GPR[13] = l1LockBase + off + 0x800
			ctx.Regs.GPR[14] = l1DataBase + off + 8
		}
		for p := 0; p < perCore; p++ {
			if err := c.BootStart(hwthread.PTID(p)); err != nil {
				return nil, nil, err
			}
		}
	}
	// Open core 0's gate at cycle 1, before anything has run.
	m.Shard(0).At(1, "chain-kick", func() {
		m.MemOf(0).Write(l1LockBase+0x800, 1, mem.SrcCPU)
	})
	return m, recs, nil
}

func lockChainRun(t *testing.T, shards, workers int) string {
	t.Helper()
	m, recs, err := buildLockChain(shards, workers)
	if err != nil {
		t.Fatal(err)
	}
	m.RunUntil(2_000_000)
	if err := m.Fatal(); err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if rec.acq.Count() != 16 {
			t.Fatalf("shards=%d workers=%d: core %d recorded %d acquisitions, want 16 (gate relay lost?)",
				shards, workers, i, rec.acq.Count())
		}
	}
	return lockShardSummary(recs, m)
}

// TestLockShardedWakeDeterminism sweeps the gated contention chain over
// shard counts 1, 2, 4 and worker counts 1, 2, 4: every configuration's
// summary (per-core latency quantiles, completion cycles, retired counts,
// and counters) must be byte-identical to the serial single-shard oracle.
// Under `go test -race` (scripts/ci.sh) this is also the data-race gate for
// lock wakeups delivered across the worker pool.
func TestLockShardedWakeDeterminism(t *testing.T) {
	oracle := lockChainRun(t, 1, 1)
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 2, 4} {
			if workers > shards {
				continue
			}
			got := lockChainRun(t, shards, workers)
			if got != oracle {
				t.Fatalf("shards=%d workers=%d: summary differs from serial oracle\noracle:\n%s\ngot:\n%s",
					shards, workers, oracle, got)
			}
		}
	}
}

// TestRunLocksExperiment exercises the full L1 entry point with a trimmed
// sweep, including its internal mutual-exclusion and shard-determinism
// checks, and reads every row back from the Result's table.
func TestRunLocksExperiment(t *testing.T) {
	lc := lockConfig{Ptids: []int{1, 4}, TotalAcq: 16, HoldIters: 40,
		Extreme: 0, Deadline: 10_000_000}
	res, err := runLocks(lc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 1 {
		t.Fatalf("want 1 table, got %d", len(res.Tables))
	}
	tbl := res.Tables[0]
	// 10 lock cells × (2 ptid points + 1 long-hold row) + cond×2 +
	// barrier×2 + ttas slot rows ×4.
	if want := 10*3 + 4 + 4; tbl.Len() != want {
		t.Fatalf("got %d rows, want %d", tbl.Len(), want)
	}
	col := map[string]int{}
	for i, h := range tbl.Headers {
		col[h] = i
	}
	num := func(row []string, h string) int64 {
		v, err := strconv.ParseInt(row[col[h]], 10, 64)
		if err != nil {
			t.Fatalf("column %s: %v", h, err)
		}
		return v
	}
	for _, r := range tbl.Rows {
		if num(r, "acq") == 0 {
			t.Fatalf("cell %s ptids=%s recorded no acquisitions", r[0], r[1])
		}
		if p50, p99 := num(r, "p50"), num(r, "p99"); p99 < p50 {
			t.Fatalf("cell %s: p99 %d < p50 %d", r[0], p99, p50)
		}
		if p99, starve := num(r, "p99"), num(r, "starve"); starve < p99 {
			t.Fatalf("cell %s: starve %d < p99 %d", r[0], starve, p99)
		}
		if num(r, "done") == 0 {
			t.Fatalf("cell %s: no probe fired", r[0])
		}
	}
	if !strings.Contains(res.Notes[0], "fnv64a") {
		t.Fatalf("shard sweep note carries no hash: %q", res.Notes[0])
	}
	if metric(t, res, "shard_workers") < 2 || metric(t, res, "shard_speedup") <= 0 {
		t.Fatalf("degenerate shard sweep metrics: %+v", res.Metrics)
	}
}
