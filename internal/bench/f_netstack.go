package bench

import (
	"fmt"

	"nocs/internal/asm"
	"nocs/internal/device"
	"nocs/internal/kernel"
	"nocs/internal/machine"
	"nocs/internal/metrics"
	"nocs/internal/netstack"
	"nocs/internal/sim"
)

func init() {
	Register(&Experiment{
		ID:    "F16",
		Title: "End-to-end RPC echo through the network-stack service",
		Claim: "microkernel-style I/O services no longer need dedicated cores; the whole request path is hardware-thread wakes (§2 TAS/Snap discussion)",
		Run:   runF16,
	})
}

func runF16(cfg RunConfig) (*Result, error) {
	n := 150
	if cfg.Quick {
		n = 30
	}
	const (
		port    = 7
		mailbox = 0x5F0000
		echoBuf = 0x700000
	)

	// --- nocs: NIC DMA → stack thread → socket doorbell → app thread →
	// send mailbox → stack thread → TX ring. All monitor wakes, no kernel.
	// With RunConfig.Faults set the same path runs against delayed/dropped
	// DMA, spurious wakes, and injected request faults; the echo count must
	// still reach n — degradation, not loss.
	var faultNote string
	nocsHist := metrics.NewHistogram()
	{
		m := cfg.NewMachine()
		k := kernel.NewNocs(m.Core(0))
		nic, err := m.NewNIC(device.NICConfig{
			RingBase: 0x100000, BufBase: 0x200000,
			TailAddr: 0x300000, HeadAddr: 0x300008,
			TXRingBase: 0x310000, TXDoorbell: 0x9100_0000, TXCompAddr: 0x320000,
		}, device.Signal{})
		if err != nil {
			return nil, err
		}
		st, err := netstack.New(k, nic, netstack.Config{
			SocketBase: 0x500000, BufBase: 0x580000, SendMailbox: mailbox,
		})
		if err != nil {
			return nil, err
		}
		sock, err := st.Bind(port)
		if err != nil {
			return nil, err
		}
		app := asm.MustAssemble("echo", fmt.Sprintf(`
main:
	movi r9, 0
loop:
	monitor r1
	mwait
next:
	ld r2, [r10+8]
	ld r3, [r1+0]
	bge r2, r3, loop
	movi r4, 15
	and r4, r2, r4
	movi r5, 16
	mul r4, r4, r5
	add r4, r4, r10
	ld r6, [r4+16]
	ld r7, [r4+24]
	ld r5, [r6+8]
	st [r13+0], r5
	ld r5, [r6+0]
	st [r13+8], r5
	st [r12+8], r13
	st [r12+16], r7
	movi r5, 1
	st [r12+0], r5
	addi r2, r2, 1
	st [r10+8], r2
	addi r9, r9, 1
	movi r5, %d
	blt r9, r5, next
	halt
`, n))
		c := m.Core(0)
		if err := c.BindProgram(0, app, "main"); err != nil {
			return nil, err
		}
		ctx := c.Threads().Context(0)
		ctx.Regs.GPR[1] = sock.DoorbellAddr()
		ctx.Regs.GPR[10] = sock.DoorbellAddr()
		ctx.Regs.GPR[12] = mailbox
		ctx.Regs.GPR[13] = echoBuf
		if err := c.BootStart(0); err != nil {
			return nil, err
		}
		var sentAt sim.Cycles
		done := 0
		var next func()
		nic.OnTransmit = func(p []int64) {
			nocsHist.RecordCycles(m.Now() - sentAt)
			done++
			if done < n {
				next()
			}
		}
		next = func() {
			sentAt = m.Now()
			nic.Deliver([]int64{port, 99, int64(done)})
		}
		m.Run(0) // park everyone
		next()
		m.Run(0)
		if m.Fatal() != nil {
			return nil, m.Fatal()
		}
		if done != n {
			return nil, fmt.Errorf("F16 nocs: echoed %d of %d", done, n)
		}
		if cfg.Faults != nil {
			faultNote = fmt.Sprintf("fault injection armed: %s — all %d echoes still completed",
				m.FaultInjector().Stats(), done)
		}
	}

	// --- legacy: IRQ into the kernel stack, scheduler wake of the app
	// process, send syscall back through the kernel stack. Composed from
	// the same cost table the other experiments use, against the real NIC
	// delivery timing.
	legacyHist := metrics.NewHistogram()
	{
		m := machine.New()
		costs := m.Core(0).Costs()
		irqc := m.IRQ().Costs()
		const (
			stackWork = sim.Cycles(600) // netstack.Config default PerPacket
			schedCost = sim.Cycles(400)
		)
		rxChain := irqc.Controller + irqc.Entry + stackWork + irqc.Exit +
			schedCost + costs.ContextSwitch
		appWork := sim.Cycles(60) // the echo loop body
		txChain := costs.SyscallEntry + 50 + stackWork/2 + costs.SyscallExit +
			m.Core(0).Hierarchy().MMIOCycles
		for i := 0; i < n; i++ {
			legacyHist.RecordCycles(300 /* NIC DMA */ + rxChain + appWork + txChain)
		}
	}

	t := metrics.NewTable("RPC echo: wire-in → wire-out latency",
		"architecture", "p50", "mean", "p50 ns")
	p50, _, _, mean := nocsHist.Summary()
	t.Row("nocs netstack (hw-thread wakes)", p50, mean, sim.Cycles(p50).Nanos(0))
	p50l, _, _, meanl := legacyHist.Summary()
	t.Row("legacy kernel stack (IRQ + sched + syscall)", p50l, meanl, sim.Cycles(p50l).Nanos(0))

	res := &Result{Tables: []*metrics.Table{t}}
	if faultNote != "" {
		res.Notes = append(res.Notes, faultNote)
	}
	res.check("nocs echo p50 < legacy echo p50", p50 < p50l, "nocs p50 %d, legacy p50 %d", p50, p50l)
	res.Notes = append(res.Notes,
		"the nocs path is measured on the real simulated stack (3 hardware threads, 4 wakes); the legacy path composes the same cost table the other baselines use")
	return res, nil
}
