package bench

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"

	"nocs/internal/asm"
	"nocs/internal/core"
	"nocs/internal/hwthread"
	"nocs/internal/machine"
	"nocs/internal/metrics"
	"nocs/internal/sim"
)

// E1 — the checkpointed endurance run (DESIGN.md §13). A many-core token
// ring built checkpoint-safe: every piece of dynamic state the pacer
// natives touch lives in simulated memory words rather than Go closure
// variables, so a machine.Snapshot taken at any cycle rebuilds the run
// exactly. RunConfig.Checkpoint (`nocsim -exp E1 -checkpoint-every N`)
// takes the checkpoints, and RunConfig.FromSnapshot (`-resume FILE`)
// warm-starts from one; either way the Result is the straight-through
// run's. S1 times the same machine serial vs sharded.

func init() {
	Register(&Experiment{
		ID:    "E1",
		Suite: SuiteSystem,
		Title: "checkpointed endurance run",
		Claim: "a run checkpointed at any cycle and resumed later ends in the straight-through run's exact state",
		Run: func(cfg RunConfig) (*Result, error) {
			ec := EnduranceConfig{Cores: 16, Horizon: 400_000}
			if cfg.Quick {
				ec = EnduranceConfig{Cores: 4, Horizon: 100_000}
			}
			return runEndurance(cfg, ec)
		},
	})
}

const enduranceMailboxBase = 0x700000

// EnduranceConfig sizes the endurance run.
type EnduranceConfig struct {
	// Cores is the simulated core count (default 16).
	Cores int
	// Shards is the event-queue shard count (default = Cores).
	Shards int
	// Workers is the worker-goroutine count (default = GOMAXPROCS).
	Workers int
	// Horizon is the simulated time to run (default 400k cycles).
	Horizon sim.Cycles
}

func (ec *EnduranceConfig) fill() {
	if ec.Cores <= 0 {
		ec.Cores = 16
	}
	if ec.Shards <= 0 {
		ec.Shards = ec.Cores
	}
	if ec.Workers <= 0 {
		ec.Workers = runtime.GOMAXPROCS(0)
	}
	if ec.Horizon <= 0 {
		ec.Horizon = 400_000
	}
}

// BuildEndurance constructs the E1 machine: per-core compute spinners plus a
// pacer service thread in monitor/mwait, a token circling the ring of cores
// via cross-shard remote writes, and the first token injected through the
// machine's checkpointable DMA-injection API. Each core owns two memory
// words — mailbox (the incoming token) and seen (the last token handled) —
// and the pacer keeps ALL of its state in them, which is what makes the
// machine snapshot-complete: restore rebuilds the pacers from memory alone.
func BuildEndurance(cfg RunConfig, ec EnduranceConfig) (*machine.Machine, error) {
	ec.fill()
	m := cfg.NewMachine(
		machine.WithCores(ec.Cores),
		machine.WithShards(ec.Shards),
		machine.WithWorkers(ec.Workers),
		machine.WithThreads(2),
		machine.WithSMTSlots(2),
	)

	spin := asm.MustAssemble("spin",
		"main:\n\tmovi r1, 0\nloop:\n\taddi r1, r1, 1\n\txor r2, r2, r1\n\tjmp loop")
	pacerProg := asm.MustAssemble("pacer", "loop:\n\tnative endurance.pacer\n\tjmp loop")

	for i := 0; i < ec.Cores; i++ {
		i := i
		c := m.Core(i)
		mb := enduranceMailboxBase + int64(i)*16
		seen := mb + 8
		next := (i + 1) % ec.Cores
		nextMB := enduranceMailboxBase + int64(next)*16
		c.RegisterNative("endurance.pacer", func(c *core.Core, t *hwthread.Context) sim.Cycles {
			c.ArmWatches(t, mb)
			if v := c.ReadWord(mb); v > c.ReadWord(seen) {
				c.WriteWord(seen, v)
				m.RemoteWrite(m.ShardOfCore(i), m.ShardOfCore(next), nextMB, v+1, 0)
				return 60 // token handling occupies the thread
			}
			c.WaitArmed(t)
			return 0
		})

		if err := c.BindProgram(0, spin, "main"); err != nil {
			return nil, err
		}
		if err := c.BootStart(0); err != nil {
			return nil, err
		}
		if err := c.BindProgram(1, pacerProg, "loop"); err != nil {
			return nil, err
		}
		c.Threads().Context(1).Regs.Mode = 1
		if err := c.BootStart(1); err != nil {
			return nil, err
		}
	}

	// First token toward core 0 at cycle 1, via the checkpointable injection
	// API so a pre-token checkpoint still carries the kick.
	m.ScheduleDMAWrite(0, 1, enduranceMailboxBase, 1)

	// A warm-start config replaces the cold boot just assembled with the
	// checkpoint's state; construction had to happen anyway so the machine
	// has the right topology and natives for the restore to graft onto.
	if err := cfg.WarmStart(m); err != nil {
		return nil, err
	}
	return m, nil
}

// ringSeen returns the last token core i's pacer handled.
func ringSeen(m *machine.Machine, i int) int64 {
	return m.MemOf(m.ShardOfCore(i)).Read(enduranceMailboxBase + int64(i)*16 + 8)
}

// ringHops returns how far the token has travelled: the highest token any
// of the first `cores` pacers handled.
func ringHops(m *machine.Machine, cores int) int64 {
	var hops int64
	for i := 0; i < cores; i++ {
		hops = max(hops, ringSeen(m, i))
	}
	return hops
}

// EnduranceSummary renders the run's observable state: the clock, each
// core's last-handled token, and its retired-instruction count. Byte
// equality of two summaries is the serial-vs-sharded and
// restore-equivalence check.
func EnduranceSummary(ec EnduranceConfig, m *machine.Machine) string {
	ec.fill()
	var b strings.Builder
	fmt.Fprintf(&b, "cores=%d shards=%d horizon=%d now=%d\n",
		ec.Cores, ec.Shards, ec.Horizon, m.Now())
	for i := 0; i < ec.Cores; i++ {
		fmt.Fprintf(&b, "core%03d seen=%d retired=%d\n", i, ringSeen(m, i), m.Core(i).Retired())
	}
	return b.String()
}

func summaryHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// runEndurance drives the E1 machine to ec.Horizon, warm-starting from
// cfg.FromSnapshot when set and handing a checkpoint to cfg.Checkpoint.Sink
// every cfg.Checkpoint.Every cycles. Neither changes the Result.
func runEndurance(cfg RunConfig, ec EnduranceConfig) (*Result, error) {
	ec.fill()
	m, err := BuildEndurance(cfg, ec)
	if err != nil {
		return nil, err
	}
	every, sink := cfg.Checkpoint.Every, cfg.Checkpoint.Sink
	if sink == nil {
		every = 0
	}
	for next := m.Now(); next < ec.Horizon; {
		if every > 0 {
			next = min(next+every, ec.Horizon)
		} else {
			next = ec.Horizon
		}
		m.RunUntil(next)
		if err := m.Fatal(); err != nil {
			return nil, err
		}
		if every > 0 && next < ec.Horizon {
			var buf bytes.Buffer
			if err := m.Snapshot(&buf); err != nil {
				return nil, fmt.Errorf("checkpoint at cycle %d: %w", next, err)
			}
			if err := sink(next, buf.Bytes()); err != nil {
				return nil, err
			}
		}
	}

	t := metrics.NewTable(
		fmt.Sprintf("token ring after %d cycles (%d cores, %d shards)", ec.Horizon, ec.Cores, ec.Shards),
		"core", "last token", "retired")
	for i := 0; i < ec.Cores; i++ {
		t.Row(i, ringSeen(m, i), m.Core(i).Retired())
	}
	return &Result{
		Tables: []*metrics.Table{t},
		Notes: []string{
			fmt.Sprintf("summary fnv64a %016x: a run resumed from any checkpoint must reproduce it",
				summaryHash(EnduranceSummary(ec, m))),
		},
		Metrics: []Metric{
			{"horizon", "cycles", float64(ec.Horizon)},
			{"token_hops", "hops", float64(ringHops(m, ec.Cores))},
			{"retired", "instrs", float64(m.Retired())},
		},
	}, nil
}
