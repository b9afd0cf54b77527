package bench

import (
	"fmt"

	"nocs/internal/hwthread"
	"nocs/internal/kernel"
	"nocs/internal/machine"
	"nocs/internal/metrics"
	"nocs/internal/sim"
	"nocs/internal/workload"
)

func init() {
	Register(&Experiment{
		ID:    "F10",
		Title: "Distributed fan-out with blocking semantics: hw threads vs software multiplexing",
		Claim: "developers can assign one hardware thread per request and use simple blocking I/O semantics without significant thread scheduling overheads (§2 Simpler Distributed Programming)",
		Run:   runF10,
	})
}

const (
	f10Shards     = 16
	f10NetLatency = sim.Cycles(30000) // ≈10 µs one-way
	f10NetJitter  = 5000.0            // exponential jitter mean
	f10Process    = sim.Cycles(2000)  // per-response local processing
)

func runF10(cfg RunConfig) (*Result, error) {
	fanouts := 60
	if cfg.Quick {
		fanouts = 15
	}

	// Pre-generate identical response arrival offsets for both legs.
	rng := sim.NewRNG(cfg.Seed)
	offsets := make([][]sim.Cycles, fanouts)
	for i := range offsets {
		offsets[i] = make([]sim.Cycles, f10Shards)
		for s := range offsets[i] {
			offsets[i][s] = f10NetLatency + sim.Cycles(rng.Exp(f10NetJitter))
		}
	}

	// --- nocs: one hardware thread per outstanding RPC, blocked in mwait
	// on its response slot. Runs on the real core model.
	nocsHist := metrics.NewHistogram()
	{
		m := machine.New()
		k := kernel.NewNocs(m.Core(0))
		c := m.Core(0)
		const slotBase = 0xC00000
		remaining := 0
		var issueAt sim.Cycles
		var runFanout func(i int)

		// Each shard waiter is a service thread watching its own slot; the
		// per-response work charges f10Process cycles.
		for s := 0; s < f10Shards; s++ {
			addr := slotBase + int64(s)*8
			if _, err := k.SpawnService(fmt.Sprintf("rpc%d", s),
				func() []int64 { return []int64{addr} },
				func(t *hwthread.Context) sim.Cycles {
					if c.ReadWord(addr) == 0 {
						return 0
					}
					c.WriteWord(addr, 0)
					remaining--
					if remaining == 0 {
						nocsHist.RecordCycles(c.Now() + f10Process - issueAt)
					}
					return f10Process
				}); err != nil {
				return nil, err
			}
		}
		fi := 0
		runFanout = func(i int) {
			issueAt = m.Now()
			remaining = f10Shards
			for s := 0; s < f10Shards; s++ {
				s := s
				m.Shard(0).After(offsets[i][s], "rpc-resp", func() {
					// Shard response: a DMA write into the slot.
					m.Mem().Write(slotBase+int64(s)*8, int64(i+1), 1) // SrcDMA
				})
			}
		}
		// Issue fan-outs back to back: next one once the previous completes.
		var pump func()
		pump = func() {
			if fi >= fanouts {
				return
			}
			i := fi
			fi++
			runFanout(i)
			// Poll completion by scheduling a check after the horizon of
			// this fanout (max offset + processing slack).
			var maxOff sim.Cycles
			for _, o := range offsets[i] {
				if o > maxOff {
					maxOff = o
				}
			}
			m.Shard(0).After(maxOff+f10Process*f10Shards+5000, "next-fanout", pump)
		}
		m.Run(0) // park services
		pump()
		m.Run(0)
		if m.Fatal() != nil {
			return nil, m.Fatal()
		}
		if int(nocsHist.Count()) != fanouts {
			return nil, fmt.Errorf("F10 nocs: %d fanouts completed, want %d", nocsHist.Count(), fanouts)
		}
	}

	// --- legacy: 16 software threads multiplexed on the 2 OS-visible
	// hardware threads; each response costs interrupt + scheduler + context
	// switch before its processing. Event-level model with the same response
	// trains.
	legacyHist := metrics.NewHistogram()
	legacySwitches := 0
	{
		eng := sim.SoloShard(sim.NewEngine(nil))
		const workers = 2 // the legacy OS sees 2 logical cores
		for i := 0; i < fanouts; i++ {
			issue := eng.Now()
			srv := kernel.NewFCFS(eng, workers, f7LegacyOverhead, nil)
			var last sim.Cycles
			done := 0
			srv.OnComplete = func(comp kernel.Completion) {
				done++
				legacySwitches++
				if comp.Finish > last {
					last = comp.Finish
				}
			}
			for s := 0; s < f10Shards; s++ {
				srv.Submit(workload.Request{ID: s, Arrival: issue + offsets[i][s], Demand: f10Process})
			}
			eng.Run(0)
			legacyHist.RecordCycles(last - issue)
		}
	}

	t := metrics.NewTable(
		fmt.Sprintf("fan-out of %d blocking RPCs (net ≈%d cycles): completion latency", f10Shards, f10NetLatency),
		"model", "p50", "p99", "mean", "sched/cs events per fanout")
	p50, p99, _, mean := nocsHist.Summary()
	t.Row("hw thread per RPC (nocs)", p50, p99, mean, 0)
	p50l, p99l, _, meanl := legacyHist.Summary()
	t.Row("software threads on 2 cores (legacy)", p50l, p99l, meanl, f10Shards)

	res := &Result{Tables: []*metrics.Table{t}}
	res.check("nocs fan-out p50 < legacy fan-out p50", p50 < p50l, "nocs p50 %d, legacy p50 %d", p50, p50l)
	res.Notes = append(res.Notes,
		"both models block per-RPC; the legacy side pays a wake-up chain (IRQ + scheduler + context switch) per response",
		"the nocs completion time is gated by network skew plus cheap hw-thread wakes")
	return res, nil
}
