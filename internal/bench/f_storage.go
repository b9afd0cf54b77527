package bench

import (
	"fmt"

	"nocs/internal/asm"
	"nocs/internal/device"
	"nocs/internal/hwthread"
	"nocs/internal/irq"
	"nocs/internal/kernel"
	"nocs/internal/machine"
	"nocs/internal/mem"
	"nocs/internal/metrics"
	"nocs/internal/sim"
	"nocs/internal/statestore"
	"nocs/internal/ukernel"
)

func init() {
	Register(&Experiment{
		ID:    "F12",
		Title: "Blocking storage read: IRQ + scheduler wake vs mwait driver threads",
		Claim: "in systems with modern SSDs, context switches occur too frequently, severely impacting latency; hardware threads can wait on I/O queues and immediately wake (§1, §2)",
		Run:   runF12,
	})
	Register(&Experiment{
		ID:    "F13",
		Title: "Cross-core wakeup: IPI chain vs machine-wide monitor",
		Claim: "waking a thread requires ... potentially sending an inter-processor interrupt (IPI) to another core (§1); a monitor write replaces the whole chain",
		Run:   runF13,
	})
	Register(&Experiment{
		ID:    "A4",
		Title: "Ablation: pinning critical thread state in the register file",
		Claim: "selecting which threads are stored closer to the core based on criticality (§4)",
		Run:   runA4,
	})
}

// F12 layout constants.
const (
	f12SQBase   = 0x400000
	f12CQBase   = 0x410000
	f12Doorbell = 0x9000_0000
	f12CQTail   = 0x420000
	f12Mailbox  = 0x430000 // user <-> blockdev service slot
	f12ReadLen  = 8        // words per read
)

// runF12 measures per-IO software overhead on top of the device time for a
// blocking read, both ways.
func runF12(cfg RunConfig) (*Result, error) {
	n := 100
	if cfg.Quick {
		n = 25
	}

	// --- nocs: one driver hardware thread watching BOTH the request
	// mailbox and the SSD completion queue (a multi-address monitor).
	var nocsPer float64
	var devLat sim.Cycles
	{
		m := machine.New()
		k := kernel.NewNocs(m.Core(0))
		ssd, err := m.NewSSD(device.SSDConfig{
			SQBase: f12SQBase, CQBase: f12CQBase,
			DoorbellAddr: f12Doorbell, CQTailAddr: f12CQTail,
		}, device.Signal{})
		if err != nil {
			return nil, err
		}
		devLat = ssd.Config().BaseLatency + ssd.Config().PerWord*f12ReadLen

		c := m.Core(0)
		submitted := int64(0) // commands issued
		harvested := int64(0) // completions consumed
		pendingSlot := int64(-1)
		if _, err := k.SpawnService("blockdev",
			func() []int64 { return []int64{f12Mailbox, f12CQTail} },
			func(t *hwthread.Context) sim.Cycles {
				var cost sim.Cycles
				// New request posted?
				if c.ReadWord(f12Mailbox) == ukernel.StatusPosted && pendingSlot < 0 {
					lba := c.ReadWord(f12Mailbox + 16)
					c.WriteWord(f12Mailbox, ukernel.StatusBusy)
					ssd.WriteSQE(m.Mem(), submitted, device.OpRead, lba, f12ReadLen, submitted)
					submitted++
					cost += 60 + c.AccessCost(f12Doorbell) // build SQE + MMIO doorbell
					c.WriteWord(f12Doorbell, submitted)
					pendingSlot = 0
				}
				// Completion arrived?
				for harvested < c.ReadWord(f12CQTail) {
					cid, status, _ := ssd.ReadCQE(harvested)
					harvested++
					cost += 40 // CQE decode
					_ = cid
					slot := pendingSlot
					pendingSlot = -1
					done := cost
					c.Shard().After(done, "io-reply", func() {
						c.WriteWord(f12Mailbox+24, status)
						c.WriteWord(f12Mailbox, ukernel.StatusDone)
					})
					_ = slot
				}
				return cost
			}); err != nil {
			return nil, err
		}

		user := asm.MustAssemble("u", fmt.Sprintf(`
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
`, ukernel.ClientCallSource("io"), n))
		if err := c.BindProgram(0, user, "main"); err != nil {
			return nil, err
		}
		c.Threads().Context(0).Regs.GPR[10] = f12Mailbox
		m.Run(0)
		start := m.Now()
		c.BootStart(0)
		m.RunUntil(start + sim.Cycles(n)*(devLat*4+100000))
		if m.Fatal() != nil {
			return nil, m.Fatal()
		}
		u := c.Threads().Context(0)
		if u.State != hwthread.Disabled {
			return nil, fmt.Errorf("F12 nocs: user stuck (r7=%d)", u.Regs.GPR[7])
		}
		nocsPer = float64(u.LastHalt-start) / float64(n)
	}

	// --- legacy: submit via syscall; completion raises an IRQ whose
	// handler hands the result to the scheduler, which context-switches the
	// blocked thread back in. Sequential blocking reads, modeled as events
	// against the real SSD device and interrupt controller.
	var legacyPer float64
	{
		m := machine.New()
		costs := m.Core(0).Costs()
		irqc := m.IRQ().Costs()
		ssd, err := m.NewSSD(device.SSDConfig{
			SQBase: f12SQBase, CQBase: f12CQBase,
			DoorbellAddr: f12Doorbell, CQTailAddr: f12CQTail,
		}, device.Signal{IRQ: m.IRQ(), Vector: 40})
		if err != nil {
			return nil, err
		}
		eng := m.Shard(0)
		h := metrics.NewHistogram()
		const schedCost = sim.Cycles(400)
		var submitAt sim.Cycles
		done := 0
		var issue func(i int)
		issue = func(i int) {
			if i >= n {
				return
			}
			submitAt = eng.Now()
			// Syscall into the kernel, build the SQE, ring the doorbell,
			// return and deschedule the now-blocked thread.
			submitCost := costs.SyscallEntry + 50 + 60 + costs.SyscallExit + costs.ContextSwitch
			eng.After(submitCost, "legacy-submit", func() {
				ssd.WriteSQE(m.Mem(), int64(i), device.OpRead, int64(i), f12ReadLen, int64(i))
				m.Mem().Write(f12Doorbell, int64(i+1), mem.SrcCPU)
			})
		}
		harvested := int64(0)
		if err := m.IRQ().Register(40, m.Core(0), 0, func(v irq.Vector, at sim.Cycles) sim.Cycles {
			var cost sim.Cycles
			for harvested < m.Mem().Read(f12CQTail) {
				harvested++
				cost += 40 // CQE decode
				// Resume the blocked thread: scheduler + context switch
				// after the IRQ context completes.
				resume := at + irqc.Entry + cost + irqc.Exit + schedCost + costs.ContextSwitch
				h.RecordCycles(resume - submitAt)
				i := done
				done++
				eng.At(resume, "legacy-resume", func() { issue(i + 1) })
			}
			return cost
		}); err != nil {
			return nil, err
		}
		issue(0)
		m.Run(0)
		if done != n {
			return nil, fmt.Errorf("F12 legacy: completed %d of %d", done, n)
		}
		legacyPer = h.Mean()
	}

	t := metrics.NewTable(
		fmt.Sprintf("blocking %d-word SSD read (device time %d cycles)", f12ReadLen, devLat),
		"path", "cycles/IO", "software overhead")
	t.Row("nocs driver hw thread", nocsPer, nocsPer-float64(devLat))
	t.Row("legacy IRQ + scheduler", legacyPer, legacyPer-float64(devLat))

	res := &Result{Tables: []*metrics.Table{t}}
	nocsOv, legacyOv := nocsPer-float64(devLat), legacyPer-float64(devLat)
	res.check("nocs IO < legacy IO", nocsPer < legacyPer, "nocs %.1f, legacy %.1f cycles/IO", nocsPer, legacyPer)
	res.check("5× nocs overhead ≤ legacy overhead", 5*nocsOv <= legacyOv,
		"nocs %.1f, legacy %.1f cycles of software overhead", nocsOv, legacyOv)
	res.Notes = append(res.Notes,
		"one driver hardware thread watches the request mailbox AND the completion queue — the multi-address monitor of §3.1",
		"the legacy path pays syscall + deschedule on submit and IRQ + scheduler + context switch on completion")
	return res, nil
}

func runF13(cfg RunConfig) (*Result, error) {
	n := 100
	if cfg.Quick {
		n = 25
	}
	const mailbox = 0x500000
	spacing := sim.Cycles(20000)

	// --- nocs: waiter hardware thread on core 1, woken by a plain store
	// from core 0 through the machine-wide monitor.
	monHist := metrics.NewHistogram()
	{
		m := machine.New(machine.WithCores(2))
		k := kernel.NewNocs(m.Core(1))
		writeAt := make([]sim.Cycles, n)
		seen := 0
		if _, err := k.SpawnService("waiter", func() []int64 { return []int64{mailbox} },
			func(t *hwthread.Context) sim.Cycles {
				v := m.Core(1).ReadWord(mailbox)
				if v == 0 {
					return 0
				}
				m.Core(1).WriteWord(mailbox, 0)
				if seen < n && writeAt[seen] > 0 {
					monHist.RecordCycles(m.Now() - writeAt[seen])
				}
				seen++
				return 30
			}); err != nil {
			return nil, err
		}
		// Core-0 side: a thread stores to the mailbox on a schedule. The
		// store itself costs one ST instruction — no IPI, no kernel entry.
		for i := 0; i < n; i++ {
			i := i
			m.Shard(0).At(sim.Cycles(i+1)*spacing, "remote-wake", func() {
				writeAt[i] = m.Now()
				m.Core(0).WriteWord(mailbox, int64(i+1))
			})
		}
		m.RunUntil(sim.Cycles(n+4) * spacing)
		if m.Fatal() != nil {
			return nil, m.Fatal()
		}
	}

	// --- legacy: the §1 chain — kernel on core 0 runs its scheduler, sends
	// an IPI to core 1, whose IRQ context runs the scheduler and context-
	// switches the target software thread in.
	ipiHist := metrics.NewHistogram()
	{
		m := machine.New(machine.WithCores(2))
		costs := m.Core(0).Costs()
		const schedCost = sim.Cycles(400)
		for i := 0; i < n; i++ {
			m.Shard(0).At(sim.Cycles(i+1)*spacing, "ipi-wake", func() {
				t0 := m.Now()
				// Sender-side scheduler decides, then kicks core 1.
				m.IRQ().SendIPI(m.Core(0), 0, m.Core(1), 0, func() sim.Cycles {
					cost := schedCost + costs.ContextSwitch
					ipiHist.RecordCycles(m.Now() + m.IRQ().Costs().IPIReceive + cost - t0)
					return cost
				})
			})
		}
		m.RunUntil(sim.Cycles(n+4) * spacing)
	}

	t := metrics.NewTable("cross-core thread wakeup latency",
		"mechanism", "p50", "mean", "p50 ns")
	p50, _, _, mean := monHist.Summary()
	t.Row("monitor write (nocs)", p50, mean, sim.Cycles(p50).Nanos(0))
	p50i, _, _, meani := ipiHist.Summary()
	t.Row("IPI + scheduler + switch (legacy)", p50i, meani, sim.Cycles(p50i).Nanos(0))

	res := &Result{Tables: []*metrics.Table{t}}
	res.check("10× monitor-wake p50 ≤ IPI-chain p50", 10*p50 <= p50i, "monitor p50 %d, IPI chain p50 %d", p50, p50i)
	res.Notes = append(res.Notes,
		"the §1 wake-up story (interrupt, scheduler, IPI, cache misses) collapses to one store")
	return res, nil
}

func runA4(cfg RunConfig) (*Result, error) {
	// A critical thread's state is demoted out of the RF by churn from many
	// other threads starting; pinning (§4) keeps its start at pipeline cost.
	run := func(pin bool) (sim.Cycles, error) {
		s := statestore.New(statestore.Config{
			RFBytes: 4 * 272, L2Bytes: 8 * 272, L3Bytes: 32 * 272,
		})
		const critical = 0
		for id := 0; id < 32; id++ {
			if err := s.Register(id, 272); err != nil {
				return 0, err
			}
		}
		if pin {
			if err := s.Pin(critical, 0); err != nil {
				return 0, err
			}
		}
		// Churn: start every other thread round robin, evicting LRU state.
		now := sim.Cycles(0)
		for round := 0; round < 4; round++ {
			for id := 1; id < 32; id++ {
				now += 100
				if _, err := s.Start(id, now); err != nil {
					return 0, err
				}
			}
		}
		return s.StartCost(critical, now+100)
	}

	unpinned, err := run(false)
	if err != nil {
		return nil, err
	}
	pinned, err := run(true)
	if err != nil {
		return nil, err
	}

	t := metrics.NewTable("critical thread start cost after heavy churn (31 competing threads)",
		"critical state", "start cycles")
	t.Row("unpinned (LRU victim)", int64(unpinned))
	t.Row("pinned in RF", int64(pinned))

	res := &Result{Tables: []*metrics.Table{t}}
	res.check("pinned start = 20 cycles", pinned == 20, "pinned start %d", pinned)
	res.check("unpinned start > pinned start", unpinned > pinned, "unpinned %d, pinned %d", unpinned, pinned)
	res.Notes = append(res.Notes,
		"pinning trades RF capacity for a guaranteed 20-cycle start — §4's criticality-based placement")
	return res, nil
}
