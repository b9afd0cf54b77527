package bench

import (
	"fmt"

	"nocs/internal/asm"
	"nocs/internal/hwthread"
	"nocs/internal/kernel"
	"nocs/internal/machine"
	"nocs/internal/metrics"
	"nocs/internal/sim"
	"nocs/internal/ukernel"
)

func init() {
	Register(&Experiment{
		ID:    "F14",
		Title: "Container proxy chain: app → proxy → network stack",
		Claim: "container proxies would benefit from the direct transfer of control between the container and the proxy hardware threads (§2)",
		Run:   runF14,
	})
	Register(&Experiment{
		ID:    "F15",
		Title: "Scheduler reaction time: timer ticks vs doorbell wakeups",
		Claim: "since starting and stopping threads incurs low overhead, the scheduler will run in much tighter loops, drastically improving application performance (§4)",
		Run:   runF15,
	})
}

const (
	f14ProxyWork = sim.Cycles(300) // policy + telemetry per request
	f14NetWork   = sim.Cycles(600) // network stack send
	f14AppSlot   = 0x600000        // app <-> proxy mailbox
	f14NetSlot   = 0x600100        // proxy <-> netstack mailbox
)

func runF14(cfg RunConfig) (*Result, error) {
	n := 150
	if cfg.Quick {
		n = 30
	}

	// --- nocs: three hardware threads, two direct hand-offs. The proxy
	// forwards to the network stack, which replies straight into the app's
	// slot — control transfers thread-to-thread, never entering a kernel.
	var nocsPer float64
	{
		m := machine.New()
		k := kernel.NewNocs(m.Core(0))
		c := m.Core(0)

		// Proxy: watches the app slot; on request, does proxy work and
		// forwards into the netstack slot.
		if _, err := k.SpawnService("proxy", func() []int64 { return []int64{f14AppSlot} },
			func(t *hwthread.Context) sim.Cycles {
				if c.ReadWord(f14AppSlot) != ukernel.StatusPosted {
					return 0
				}
				c.WriteWord(f14AppSlot, ukernel.StatusBusy)
				arg := c.ReadWord(f14AppSlot + 16)
				cost := f14ProxyWork
				c.Shard().After(cost, "proxy-fwd", func() {
					c.WriteWord(f14NetSlot+16, arg)
					c.WriteWord(f14NetSlot, ukernel.StatusPosted)
				})
				return cost
			}); err != nil {
			return nil, err
		}
		// Netstack: watches the netstack slot; replies into the app slot.
		if _, err := k.SpawnService("netstack", func() []int64 { return []int64{f14NetSlot} },
			func(t *hwthread.Context) sim.Cycles {
				if c.ReadWord(f14NetSlot) != ukernel.StatusPosted {
					return 0
				}
				c.WriteWord(f14NetSlot, ukernel.StatusFree)
				arg := c.ReadWord(f14NetSlot + 16)
				cost := f14NetWork
				c.Shard().After(cost, "net-done", func() {
					c.WriteWord(f14AppSlot+24, arg)
					c.WriteWord(f14AppSlot, ukernel.StatusDone)
				})
				return cost
			}); err != nil {
			return nil, err
		}

		app := asm.MustAssemble("app", fmt.Sprintf(`
main:
	movi r7, 0
loop:
	movi r2, 1
	mov r3, r7
%s
	addi r7, r7, 1
	movi r8, %d
	blt r7, r8, loop
	halt
`, ukernel.ClientCallSource("px"), n))
		if err := c.BindProgram(0, app, "main"); err != nil {
			return nil, err
		}
		c.Threads().Context(0).Regs.GPR[10] = f14AppSlot
		m.Run(0)
		start := m.Now()
		c.BootStart(0)
		m.RunUntil(start + sim.Cycles(n)*100000)
		if m.Fatal() != nil {
			return nil, m.Fatal()
		}
		u := c.Threads().Context(0)
		if u.State != hwthread.Disabled {
			return nil, fmt.Errorf("F14 nocs: app stuck at r7=%d", u.Regs.GPR[7])
		}
		nocsPer = float64(u.LastHalt-start) / float64(n)
	}

	// --- legacy: the proxy is a sidecar process. app → proxy crosses a
	// socket (syscall + scheduler + two context switches), the proxy then
	// issues its own network syscall.
	var legacyPer float64
	{
		m := machine.New()
		k := kernel.NewLegacy(m.Core(0))
		cs := m.Core(0).Costs().ContextSwitch
		const schedCost = sim.Cycles(400)
		k.RegisterSyscall(20, func(t *hwthread.Context, args [4]int64) (int64, sim.Cycles) {
			// Socket hop to the proxy process and back...
			hop := 2*schedCost + 2*cs
			// ...the proxy's work, and its nested network syscall.
			nested := m.Core(0).Costs().SyscallEntry + 50 + f14NetWork + m.Core(0).Costs().SyscallExit
			return args[0], hop + f14ProxyWork + nested
		})
		app := asm.MustAssemble("app", fmt.Sprintf(`
main:
	movi r7, 0
loop:
	movi r1, 20
	mov r2, r7
	syscall
	addi r7, r7, 1
	movi r8, %d
	blt r7, r8, loop
	halt
`, n))
		m.Core(0).BindProgram(0, app, "main")
		m.Core(0).BootStart(0)
		m.Run(0)
		legacyPer = float64(m.Now()) / float64(n)
	}

	t := metrics.NewTable(
		fmt.Sprintf("proxied request (proxy %d + netstack %d cycles of real work)", f14ProxyWork, f14NetWork),
		"architecture", "cycles/request", "overhead vs work")
	work := float64(f14ProxyWork + f14NetWork)
	t.Row("hw-thread chain (nocs)", nocsPer, nocsPer-work)
	t.Row("sidecar process (legacy)", legacyPer, legacyPer-work)

	res := &Result{Tables: []*metrics.Table{t}}
	res.check("hw-thread chain < sidecar", nocsPer < legacyPer, "hw-thread chain %.1f, sidecar %.1f cycles/request", nocsPer, legacyPer)
	res.check("hw-thread chain overhead ≤ 500 cycles", nocsPer-work <= 500, "overhead %.1f cycles", nocsPer-work)
	res.Notes = append(res.Notes,
		"the request transfers app → proxy → netstack → app entirely through hardware-thread wakes")
	return res, nil
}

func runF15(cfg RunConfig) (*Result, error) {
	n := 200
	if cfg.Quick {
		n = 50
	}
	const demand = sim.Cycles(100)
	spacing := sim.Cycles(50000)

	// --- nocs: the real Scheduler, woken by its doorbell.
	nocsHist := metrics.NewHistogram()
	{
		m := machine.New()
		k := kernel.NewNocs(m.Core(0))
		s, err := kernel.NewScheduler(k, []hwthread.PTID{0, 1}, 0x700000, 100)
		if err != nil {
			return nil, err
		}
		m.Run(0)
		for i := 0; i < n; i++ {
			m.Shard(0).At(sim.Cycles(i+1)*spacing, "ready", func() {
				submit := m.Now()
				s.Submit(kernel.Task{Demand: demand, OnDone: func(at sim.Cycles) {
					nocsHist.RecordCycles(at - submit - demand)
				}})
			})
		}
		m.RunUntil(sim.Cycles(n+4) * spacing)
		if m.Fatal() != nil {
			return nil, m.Fatal()
		}
		if int(nocsHist.Count()) != n {
			return nil, fmt.Errorf("F15 nocs: %d of %d tasks completed", nocsHist.Count(), n)
		}
	}

	// --- legacy: the scheduler runs on the timer tick. A task becoming
	// ready waits for the next tick, then pays scheduler + context switch.
	legacyRow := func(tick sim.Cycles) *metrics.Histogram {
		h := metrics.NewHistogram()
		const schedCost = sim.Cycles(400)
		cs := sim.Cycles(1200)
		rng := sim.NewRNG(cfg.Seed + uint64(tick))
		for i := 0; i < n; i++ {
			ready := sim.Cycles(i+1)*spacing + sim.Cycles(rng.Intn(int(tick)))
			nextTick := ((ready / tick) + 1) * tick
			started := nextTick + schedCost + cs
			h.RecordCycles(started - ready)
		}
		return h
	}

	t := metrics.NewTable("task-ready → task-running latency",
		"scheduler", "p50", "mean", "mean µs @3GHz")
	p50, _, _, mean := nocsHist.Summary()
	t.Row("nocs doorbell scheduler", p50, mean, metrics.CyclesToUs(int64(mean), 0))
	var tick10 int64 // the 10µs tick's p50
	for _, tick := range []sim.Cycles{30000, 300000, 3000000} {
		h := legacyRow(tick)
		p50l, _, _, meanl := h.Summary()
		if tick == 30000 {
			tick10 = p50l
		}
		t.Row(fmt.Sprintf("legacy %dµs tick", int64(tick)/3000), p50l, meanl,
			metrics.CyclesToUs(int64(meanl), 0))
	}

	res := &Result{Tables: []*metrics.Table{t}}
	res.check("10× doorbell p50 ≤ 10µs-tick p50", 10*p50 <= tick10, "doorbell p50 %d, 10µs tick p50 %d", p50, tick10)
	res.Notes = append(res.Notes,
		"the doorbell scheduler reacts at monitor-wakeup latency; tick-driven scheduling waits half a tick on average",
		"this is §4's 'reduced queuing time, more time for higher-quality management decisions'")
	return res, nil
}
