package bench

import (
	"fmt"

	"nocs/internal/asm"
	"nocs/internal/core"
	"nocs/internal/device"
	"nocs/internal/hwthread"
	"nocs/internal/irq"
	"nocs/internal/kernel"
	"nocs/internal/machine"
	"nocs/internal/metrics"
	"nocs/internal/sim"
	"nocs/internal/statestore"
)

func init() {
	Register(&Experiment{
		ID:    "F1",
		Title: "Event-to-handler wakeup latency: IRQ vs mwait vs polling",
		Claim: "waking an mwait-ing hardware thread avoids the expensive transition to a hard IRQ context (§2 No More Interrupts)",
		Run:   runF1,
	})
	Register(&Experiment{
		ID:    "F8",
		Title: "Hardware-thread start latency by state-storage tier",
		Claim: "RF-resident starts cost ~20 cycles (pipeline depth); L2/L3 add 10–50 cycles; off-chip is severe (§4)",
		Run:   runF8,
	})
	Register(&Experiment{
		ID:    "F9",
		Title: "Hardware priorities for time-critical threads",
		Claim: "threads serving time-sensitive events can receive more cycles via hardware priorities (§4)",
		Run:   runF9,
	})
	Register(&Experiment{
		ID:    "A3",
		Title: "Ablation: state prefetch on wakeup",
		Claim: "prefetching the state of recently woken threads hides the tier transfer latency (§4)",
		Run:   runA3,
	})
}

const (
	f1Events      = 200
	f1QuickEvents = 40
	f1Spacing     = sim.Cycles(20000)
)

// f1NIC builds the standard F1/F2 NIC layout on a machine. The layout is a
// package constant, so a construction failure is a programming bug: panic.
func f1NIC(m *machine.Machine, sig device.Signal) *device.NIC {
	nic, err := m.NewNIC(device.NICConfig{
		RingBase: 0x100000, BufBase: 0x200000,
		TailAddr: 0x300000, HeadAddr: 0x300008,
	}, sig)
	if err != nil {
		panic(err)
	}
	return nic
}

// ticks is a periodic train of n events (event i at (i+1)*period) that keeps
// one entry in the heap: streamTicks reserves the whole train's sequence
// numbers up front and each event arms its successor under its reserved
// number, so the train dispatches exactly as if all n had been scheduled at
// once.
type ticks struct {
	sh     *sim.Shard
	name   string
	period sim.Cycles
	base   uint64
	n      int
	next   int
	fire   func(i int)
}

// streamTicks schedules fire(i) at (i+1)*period for i in [0, n).
func streamTicks(sh *sim.Shard, name string, n int, period sim.Cycles, fire func(i int)) {
	if n <= 0 {
		return
	}
	t := &ticks{sh: sh, name: name, period: period, base: sh.ReserveSeqs(n), n: n, fire: fire}
	t.arm()
}

func (t *ticks) arm() {
	t.sh.AtSeq(sim.Cycles(t.next+1)*t.period, t.base+uint64(t.next), t.name, t)
}

func (t *ticks) OnEvent() {
	i := t.next
	t.next++
	if t.next < t.n {
		t.arm()
	}
	t.fire(i)
}

// deliverTrain schedules n single-word packets spaced evenly and returns the
// slice that will hold each packet's tail-write (event) time.
func deliverTrain(m *machine.Machine, nic *device.NIC, n int) []sim.Cycles {
	times := make([]sim.Cycles, n)
	streamTicks(m.Shard(0), "arrival", n, f1Spacing, func(i int) {
		times[i] = nic.Deliver([]int64{int64(i)})
	})
	return times
}

func runF1(cfg RunConfig) (*Result, error) {
	n := f1Events
	if cfg.Quick {
		n = f1QuickEvents
	}

	// --- mwait mechanism: dedicated hardware thread on the RX tail. ---
	mwaitHist := metrics.NewHistogram()
	{
		m := machine.New(machine.WithTracer(cfg.Tracer), machine.WithName("F1/mwait"))
		k := kernel.NewNocs(m.Core(0))
		nic := f1NIC(m, device.Signal{})
		var times []sim.Cycles
		if _, err := k.ServeDevice("rx", nic.TailAddr(), 0x300008, 30,
			func(seq int64, at sim.Cycles) {
				if int(seq) < len(times) && times[seq] > 0 {
					mwaitHist.RecordCycles(at - times[seq])
				}
			}); err != nil {
			return nil, err
		}
		times = deliverTrain(m, nic, n)
		m.RunUntil(sim.Cycles(n+4) * f1Spacing)
		if m.Fatal() != nil {
			return nil, m.Fatal()
		}
	}

	// --- IRQ mechanism: legacy vectored interrupt into a busy thread. ---
	irqHist := metrics.NewHistogram()
	{
		m := machine.New(machine.WithTracer(cfg.Tracer), machine.WithName("F1/irq"))
		nic := f1NIC(m, device.Signal{IRQ: m.IRQ(), Vector: 33})
		var times []sim.Cycles
		entry := m.IRQ().Costs().Entry
		head := int64(0)
		m.IRQ().Register(33, m.Core(0), 0, func(v irq.Vector, at sim.Cycles) sim.Cycles {
			tail := m.Mem().Read(nic.TailAddr())
			var cost sim.Cycles
			for seq := head; seq < tail; seq++ {
				cost += 30
				if int(seq) < len(times) && times[seq] > 0 {
					// Completion: IRQ-context entry plus processing of this
					// packet and everything ahead of it in the batch.
					irqHist.RecordCycles(at + entry + cost - times[seq])
				}
			}
			head = tail
			m.Mem().Write(0x300008, tail, 0)
			return cost
		})
		// Victim thread: long-running compute.
		busy := asm.MustAssemble("busy", "main:\n\tmovi r1, 0\nloop:\n\taddi r1, r1, 1\n\tjmp loop")
		m.Core(0).BindProgram(0, busy, "main")
		m.Core(0).BootStart(0)
		times = deliverTrain(m, nic, n)
		m.RunUntil(sim.Cycles(n+4) * f1Spacing)
	}

	// --- polling mechanism: a thread spinning on the tail word. ---
	pollHist := metrics.NewHistogram()
	var pollRetired uint64
	{
		m := machine.New(machine.WithTracer(cfg.Tracer), machine.WithName("F1/polling"))
		nic := f1NIC(m, device.Signal{})
		var times []sim.Cycles
		lastSeen := int64(0)
		m.Core(0).RegisterNative("f1.poll.record", func(c *core.Core, t *hwthread.Context) sim.Cycles {
			tail := c.ReadWord(nic.TailAddr())
			var cost sim.Cycles
			for seq := lastSeen; seq < tail; seq++ {
				cost += 30
				if int(seq) < len(times) && times[seq] > 0 {
					pollHist.RecordCycles(c.Now() + cost - times[seq])
				}
			}
			lastSeen = tail
			c.WriteWord(0x300008, tail) // publish head for NIC flow control
			t.Regs.GPR[3] = tail
			return cost
		})
		poll := asm.MustAssemble("poll", `
main:
poll:
	ld r2, [r1+0]
	beq r2, r3, poll
	native f1.poll.record
	jmp poll
`)
		m.Core(0).BindProgram(0, poll, "main")
		m.Core(0).Threads().Context(0).Regs.GPR[1] = nic.TailAddr()
		m.Core(0).BootStart(0)
		times = deliverTrain(m, nic, n)
		m.RunUntil(sim.Cycles(n+4) * f1Spacing)
		pollRetired = m.Core(0).Retired()
	}

	t := metrics.NewTable("Event → handler-body latency (cycles @3GHz)",
		"mechanism", "p50", "p99", "mean", "p50 ns", "burns core")
	for _, row := range []struct {
		name  string
		h     *metrics.Histogram
		burns string
	}{
		{"mwait hw thread", mwaitHist, "no"},
		{"legacy IRQ", irqHist, "no"},
		{"polling", pollHist, "yes"},
	} {
		p50, p99, _, mean := row.h.Summary()
		t.Row(row.name, p50, p99, mean, sim.Cycles(p50).Nanos(0), row.burns)
	}

	res := &Result{Tables: []*metrics.Table{t}}
	res.Notes = append(res.Notes,
		fmt.Sprintf("polling thread retired %d instructions to detect %d events (the wasted core)", pollRetired, n))
	if mwaitHist.Count() == 0 || irqHist.Count() == 0 || pollHist.Count() == 0 {
		return nil, fmt.Errorf("F1: empty histogram (mwait=%d irq=%d poll=%d)",
			mwaitHist.Count(), irqHist.Count(), pollHist.Count())
	}
	mwait, irqP50, poll := mwaitHist.Quantile(0.5), irqHist.Quantile(0.5), pollHist.Quantile(0.5)
	res.check("IRQ p50 ≥ 5× mwait p50", irqP50 >= 5*mwait, "IRQ p50 %d, mwait p50 %d", irqP50, mwait)
	res.check("polling p50 ≤ 3× mwait p50", poll <= 3*mwait, "polling p50 %d, mwait p50 %d", poll, mwait)
	return res, nil
}

func runF8(cfg RunConfig) (*Result, error) {
	// Size tiers to hold exactly 2 base contexts each so threads land where
	// we want them.
	s := statestore.New(statestore.Config{
		RFBytes: 2 * 272, L2Bytes: 2 * 272, L3Bytes: 2 * 272,
	})
	for id := 0; id < 8; id++ {
		if err := s.Register(id, 272); err != nil {
			return nil, err
		}
	}
	// ids 0,1 -> RF; 2,3 -> L2; 4,5 -> L3; 6,7 -> DRAM.
	reps := []struct {
		id   int
		tier statestore.Tier
	}{{0, statestore.TierRF}, {2, statestore.TierL2}, {4, statestore.TierL3}, {6, statestore.TierDRAM}}

	t := metrics.NewTable("start latency by thread-state location",
		"state tier", "start cycles", "ns @3GHz", "paper figure")
	paper := map[statestore.Tier]string{
		statestore.TierRF:   "~20 cycles (pipeline depth)",
		statestore.TierL2:   "+10–50 cycles",
		statestore.TierL3:   "+10–50 cycles (3–16ns)",
		statestore.TierDRAM: "\"severe performance losses\"",
	}
	cost := map[statestore.Tier]sim.Cycles{}
	for _, r := range reps {
		tier, ok := s.TierOf(r.id)
		if !ok || tier != r.tier {
			return nil, fmt.Errorf("F8: thread %d in %v, want %v", r.id, tier, r.tier)
		}
		c, err := s.StartCost(r.id, 0)
		if err != nil {
			return nil, err
		}
		cost[tier] = c
		t.Row(tier.String(), int64(c), c.Nanos(0), paper[tier])
	}
	res := &Result{Tables: []*metrics.Table{t}}
	rf, l2, l3, dram := cost[statestore.TierRF], cost[statestore.TierL2], cost[statestore.TierL3], cost[statestore.TierDRAM]
	res.check("RF start = 20 cycles", rf == 20, "RF start %d", rf)
	res.check("L2 and L3 add 10–50 cycles to an RF start", l2-rf >= 10 && l2-rf <= 50 && l3-rf >= 10 && l3-rf <= 50,
		"RF %d, L2 %d, L3 %d", rf, l2, l3)
	res.check("DRAM start = 420 cycles", dram == 420, "DRAM start %d", dram)
	return res, nil
}

func runA3(cfg RunConfig) (*Result, error) {
	// A thread whose state sits in the L3 slice wakes; with prefetch the
	// start pays only the pipeline refill once the transfer completes.
	run := func(prefetch bool, gap sim.Cycles) (sim.Cycles, error) {
		s := statestore.New(statestore.Config{
			RFBytes: 272, L2Bytes: 272, L3Bytes: 4 * 272, Prefetch: prefetch,
		})
		for id := 0; id < 4; id++ {
			if err := s.Register(id, 272); err != nil {
				return 0, err
			}
		}
		// id 2 is in L3.
		wake := sim.Cycles(1000)
		s.Prefetch(2, wake)
		return s.StartCost(2, wake+gap)
	}

	t := metrics.NewTable("L3-resident thread: wake → start cost",
		"prefetch", "sched gap (cycles)", "start cycles")
	var onAt50 sim.Cycles
	for _, gap := range []sim.Cycles{0, 25, 50, 100} {
		off, err := run(false, gap)
		if err != nil {
			return nil, err
		}
		on, err := run(true, gap)
		if err != nil {
			return nil, err
		}
		if gap == 50 {
			onAt50 = on
		}
		t.Row("off", int64(gap), int64(off))
		t.Row("on", int64(gap), int64(on))
	}
	res := &Result{
		Tables: []*metrics.Table{t},
		Notes: []string{
			"with prefetch, any scheduling gap ≥ the transfer latency hides it entirely",
		},
	}
	res.check("prefetch at a 50-cycle gap starts in 20 cycles", onAt50 == 20, "start %d cycles", onAt50)
	return res, nil
}

// F9 workload shape: one critical thread woken by a periodic mailbox write,
// eight background spinners, all on one core's two SMT slots.
const (
	f9Mailbox    = 0x500000
	f9Background = 8
	f9WorkIters  = 50
	f9Period     = sim.Cycles(30000)
)

// f9Machine builds and runs one F9 machine: the critical thread at the given
// hardware priority and f9Background spinners, driven by events periodic
// mailbox writes. It returns the machine (for its counters) and the
// critical thread's completion-latency histogram.
func f9Machine(priority, events int) (*machine.Machine, *metrics.Histogram, error) {
	m := machine.New()
	c := m.Core(0)
	hist := metrics.NewHistogram()
	writeAt := make([]sim.Cycles, events+1)
	recorded := 0
	c.RegisterNative("f9.done", func(cc *core.Core, t *hwthread.Context) sim.Cycles {
		if recorded < events && writeAt[recorded] > 0 {
			hist.RecordCycles(cc.Now() - writeAt[recorded])
		}
		recorded++
		return 1
	})
	critical := asm.MustAssemble("critical", fmt.Sprintf(`
main:
loop:
	monitor r1
	mwait
	movi r4, 0
	movi r5, %d
work:
	addi r4, r4, 1
	blt r4, r5, work
	native f9.done
	jmp loop
`, f9WorkIters))
	if err := c.BindProgram(0, critical, "main"); err != nil {
		return nil, nil, err
	}
	ct := c.Threads().Context(0)
	ct.Regs.GPR[1] = f9Mailbox
	ct.Priority = priority
	if err := c.BootStart(0); err != nil {
		return nil, nil, err
	}

	busy := asm.MustAssemble("busy", "main:\n\tmovi r1, 0\nloop:\n\taddi r1, r1, 1\n\tjmp loop")
	for i := 1; i <= f9Background; i++ {
		if err := c.BindProgram(hwthread.PTID(i), busy, "main"); err != nil {
			return nil, nil, err
		}
		c.BootStart(hwthread.PTID(i))
	}
	streamTicks(m.Shard(0), "tick", events, f9Period, func(i int) {
		writeAt[i] = m.Now()
		m.Mem().Write(f9Mailbox, int64(i+1), 2) // SrcMSI
	})
	m.RunUntil(sim.Cycles(events+4) * f9Period)
	if m.Fatal() != nil {
		return nil, nil, m.Fatal()
	}
	return m, hist, nil
}

func runF9(cfg RunConfig) (*Result, error) {
	events := 100
	if cfg.Quick {
		events = 25
	}

	// The two priority settings are independent machines: run them as sweep
	// points into index-addressed slots.
	priorities := []int{1, 8}
	hists := make([]*metrics.Histogram, len(priorities))
	if err := ForEachPoint(cfg, len(priorities), func(i int) error {
		_, h, err := f9Machine(priorities[i], events)
		hists[i] = h
		return err
	}); err != nil {
		return nil, err
	}
	lo, hi := hists[0], hists[1]

	t := metrics.NewTable(
		fmt.Sprintf("critical-event completion latency with %d background threads (2 SMT slots)", f9Background),
		"hw priority", "p50", "p99", "mean")
	for _, row := range []struct {
		name string
		h    *metrics.Histogram
	}{{"1 (fair RR)", lo}, {"8 (time-critical)", hi}} {
		p50, p99, _, mean := row.h.Summary()
		t.Row(row.name, p50, p99, mean)
	}
	res := &Result{Tables: []*metrics.Table{t}}
	crit, fair := hi.Quantile(0.5), lo.Quantile(0.5)
	res.check("time-critical p50 < fair p50", crit < fair, "time-critical p50 %d, fair p50 %d", crit, fair)
	return res, nil
}
