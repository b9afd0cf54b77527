package bench

import (
	"fmt"

	"nocs/internal/asm"
	"nocs/internal/hwthread"
	"nocs/internal/hypervisor"
	"nocs/internal/kernel"
	"nocs/internal/machine"
	"nocs/internal/metrics"
	"nocs/internal/sim"
)

func init() {
	Register(&Experiment{
		ID:    "F3",
		Title: "System call mechanisms: in-thread switch vs FlexSC vs dedicated hardware thread",
		Claim: "system calls can be served in dedicated hardware threads, avoiding the mode-switching overheads without FlexSC's asynchronous API (§2 Exception-less System Calls)",
		Run:   runF3,
	})
	Register(&Experiment{
		ID:    "F4",
		Title: "VM-exit handling: in-thread root-mode switch vs hypervisor hardware thread",
		Claim: "VM-exits can simply make a root-mode hardware thread runnable rather than waste hundreds of nanoseconds context-switching (§1, §2)",
		Run:   runF4,
	})
	Register(&Experiment{
		ID:    "F5",
		Title: "FP/vector state and syscall cost (kernel use of all registers)",
		Claim: "with kernel code in its own hardware thread, kernels can use FP and vector operations without affecting syscall latency (§2 Access to All Registers)",
		Run:   runF5,
	})
	Register(&Experiment{
		ID:    "F11",
		Title: "Untrusted hypervisor: deprivileged exit-handling chains",
		Claim: "a hypervisor isolated in an unprivileged hardware thread provides the same functionality without privileged access (§2 Untrusted Hypervisors)",
		Run:   runF11,
	})
}

const sysWork = sim.Cycles(100) // null-ish syscall body

// syscallLoop builds a user program making n syscalls (number 1, arg = i).
func syscallLoop(n int) string {
	return fmt.Sprintf(`
main:
	movi r7, 0
loop:
	movi r1, 1
	mov r2, r7
	syscall
	addi r7, r7, 1
	movi r8, %d
	blt r7, r8, loop
	halt
`, n)
}

// elapsedPerOp runs a machine to completion (or a horizon) and returns
// cycles between start and the user thread halting, divided by n.
func perOp(total sim.Cycles, n int) float64 { return float64(total) / float64(n) }

func runF3(cfg RunConfig) (*Result, error) {
	n := 300
	if cfg.Quick {
		n = 50
	}
	echo := func(t *hwthread.Context, args [4]int64) (int64, sim.Cycles) {
		return args[0], sysWork
	}

	// --- synchronous in-thread (Linux shape) ---
	var syncPer float64
	{
		m := machine.New()
		k := kernel.NewLegacy(m.Core(0))
		k.RegisterSyscall(1, echo)
		prog := asm.MustAssemble("u", syscallLoop(n))
		m.Core(0).BindProgram(0, prog, "main")
		m.Core(0).BootStart(0)
		m.Run(0)
		if got, _ := k.Syscalls(); got != uint64(n) {
			return nil, fmt.Errorf("F3 sync: %d syscalls, want %d", got, n)
		}
		syncPer = perOp(m.Now(), n)
	}

	// --- FlexSC-style asynchronous page (dedicated worker core) ---
	var flexPer float64
	{
		m := machine.New(machine.WithCores(2))
		k := kernel.NewLegacy(m.Core(0))
		k.RegisterSyscall(1, echo)
		f := kernel.NewFlexSC(k, 0x700000, 8)
		f.RegisterWorkerOn(m.Core(1))
		worker := asm.MustAssemble("w", f.WorkerProgramSource())
		m.Core(1).BindProgram(0, worker, "worker")
		m.Core(1).Threads().Context(0).Regs.Mode = 1
		m.Core(1).BootStart(0)

		// User side: post into slot 0 via stores, then spin on the status
		// word. r10 = slot base.
		user := asm.MustAssemble("u", fmt.Sprintf(`
main:
	movi r7, 0
loop:
	movi r5, 1
	st [r10+8], r5      ; num = 1
	st [r10+16], r7     ; arg
	st [r10+0], r5      ; status = posted
spin:
	ld r6, [r10+0]
	movi r5, 2
	bne r6, r5, spin
	ld r1, [r10+24]     ; result
	movi r5, 0
	st [r10+0], r5      ; free slot
	addi r7, r7, 1
	movi r8, %d
	blt r7, r8, loop
	halt
`, n))
		m.Core(0).BindProgram(0, user, "main")
		m.Core(0).Threads().Context(0).Regs.GPR[10] = 0x700000
		m.Core(0).BootStart(0)
		// The worker never halts; run until the user thread is done.
		horizon := sim.Cycles(n) * 100000
		m.RunUntil(horizon)
		if m.Core(0).Threads().Context(0).State != hwthread.Disabled {
			return nil, fmt.Errorf("F3 flexsc: user did not finish within horizon")
		}
		if f.Executed() != uint64(n) {
			return nil, fmt.Errorf("F3 flexsc: executed %d, want %d", f.Executed(), n)
		}
		// Completion time = when the user halted; approximate with the last
		// event the user retired. We bound it by scanning: the user halted
		// before horizon; measure via retired-instruction timestamping is
		// overkill — rerun with engine drain on a copy is cheaper. Instead,
		// count cycles until user halt exactly:
		flexPer = perOp(userHaltTime(m), n)
	}

	// --- dedicated syscall hardware thread (the paper's mechanism) ---
	var nocsPer float64
	{
		m := machine.New()
		k := kernel.NewNocs(m.Core(0))
		k.RegisterSyscall(1, echo)
		if _, err := k.ServeSyscalls([]hwthread.PTID{0}, 0x800000); err != nil {
			return nil, err
		}
		prog := asm.MustAssemble("u", syscallLoop(n))
		m.Core(0).BindProgram(0, prog, "main")
		m.Run(0) // park the service
		start := m.Now()
		m.Core(0).BootStart(0)
		m.RunUntil(start + sim.Cycles(n)*100000)
		if got, _ := k.Syscalls(); got != uint64(n) {
			return nil, fmt.Errorf("F3 nocs: %d syscalls, want %d", got, n)
		}
		nocsPer = perOp(userHaltTime(m)-start, n)
	}

	t := metrics.NewTable("cycles per null syscall (work body = 100 cycles)",
		"mechanism", "cycles/call", "ns/call", "extra resources")
	t.Row("in-thread mode switch (sync)", syncPer, syncPer/3, "none")
	t.Row("FlexSC-style async page", flexPer, flexPer/3, "one dedicated polling core")
	t.Row("dedicated syscall hw thread", nocsPer, nocsPer/3, "one parked hw thread")

	res := &Result{Tables: []*metrics.Table{t}}
	res.check("hw-thread syscall < in-thread mode switch", nocsPer < syncPer,
		"hw thread %.1f, mode switch %.1f cycles/call", nocsPer, syncPer)
	res.Notes = append(res.Notes,
		"the hw-thread path keeps the synchronous blocking API — FlexSC's asynchronous batching API is what §2 calls 'complex asynchronous APIs'")
	return res, nil
}

// userHaltTime returns the HALT timestamp of ptid 0 on core 0 — the
// program-completion time even when pollers (FlexSC workers) keep the event
// queue alive past it.
func userHaltTime(m *machine.Machine) sim.Cycles {
	return m.Core(0).Threads().Context(0).LastHalt
}

func runF4(cfg RunConfig) (*Result, error) {
	n := 200
	if cfg.Quick {
		n = 40
	}
	guestSrc := fmt.Sprintf(`
main:
	movi r7, 0
loop:
	movi r1, 1      ; ExitCPU
	vmcall
	addi r7, r7, 1
	movi r8, %d
	blt r7, r8, loop
	halt
`, n)

	var legacyPer float64
	{
		m := machine.New()
		h := hypervisor.AttachLegacy(m.Core(0), hypervisor.Config{})
		prog := asm.MustAssemble("g", guestSrc)
		m.Core(0).BindProgram(0, prog, "main")
		m.Core(0).BootStart(0)
		m.Run(0)
		if total, _ := h.Exits(); total != uint64(n) {
			return nil, fmt.Errorf("F4 legacy: %d exits", total)
		}
		legacyPer = perOp(m.Now(), n)
	}

	var nocsPer float64
	{
		m := machine.New()
		k := kernel.NewNocs(m.Core(0))
		prog := asm.MustAssemble("g", guestSrc)
		m.Core(0).BindProgram(0, prog, "main")
		h, err := hypervisor.ServeGuests(k, []hwthread.PTID{0}, 0x900000, 0, hypervisor.Config{})
		if err != nil {
			return nil, err
		}
		m.Run(0)
		start := m.Now()
		m.Core(0).BootStart(0)
		m.Run(0)
		if h.Exits() != uint64(n) {
			return nil, fmt.Errorf("F4 nocs: %d exits", h.Exits())
		}
		nocsPer = perOp(m.Now()-start, n)
	}

	t := metrics.NewTable("cycles per CPU-emulation VM-exit (emulation body = 400 cycles)",
		"mechanism", "cycles/exit", "ns/exit")
	t.Row("in-thread VM-exit/VM-entry (KVM shape)", legacyPer, legacyPer/3)
	t.Row("hypervisor hardware thread", nocsPer, nocsPer/3)

	res := &Result{Tables: []*metrics.Table{t}}
	res.check("hw-thread VM exit < in-thread VM exit", nocsPer < legacyPer,
		"hw thread %.1f, in-thread %.1f cycles/exit", nocsPer, legacyPer)
	return res, nil
}

func runF5(cfg RunConfig) (*Result, error) {
	n := 200
	if cfg.Quick {
		n = 40
	}
	echo := func(t *hwthread.Context, args [4]int64) (int64, sim.Cycles) {
		return args[0], sysWork
	}
	// User with live vector state (784-byte context).
	userSrc := fmt.Sprintf(`
main:
	fmovi f0, 2     ; dirty the vector state
	movi r7, 0
loop:
	movi r1, 1
	mov r2, r7
	syscall
	addi r7, r7, 1
	movi r8, %d
	blt r7, r8, loop
	halt
`, n)

	runLegacy := func(kernelFP bool) (float64, error) {
		m := machine.New()
		k := kernel.NewLegacy(m.Core(0))
		m.Core(0).KernelUsesFP = kernelFP
		k.RegisterSyscall(1, echo)
		prog := asm.MustAssemble("u", userSrc)
		m.Core(0).BindProgram(0, prog, "main")
		m.Core(0).BootStart(0)
		m.Run(0)
		return perOp(m.Now(), n), nil
	}
	intOnly, err := runLegacy(false)
	if err != nil {
		return nil, err
	}
	withFP, err := runLegacy(true)
	if err != nil {
		return nil, err
	}

	var nocsPer float64
	{
		m := machine.New()
		k := kernel.NewNocs(m.Core(0))
		k.RegisterSyscall(1, echo)
		if _, err := k.ServeSyscalls([]hwthread.PTID{0}, 0x800000); err != nil {
			return nil, err
		}
		prog := asm.MustAssemble("u", userSrc)
		m.Core(0).BindProgram(0, prog, "main")
		m.Run(0)
		start := m.Now()
		m.Core(0).BootStart(0)
		m.RunUntil(start + sim.Cycles(n)*100000)
		nocsPer = perOp(userHaltTime(m)-start, n)
	}

	t := metrics.NewTable("syscall cost when the caller has live vector state",
		"kernel configuration", "cycles/call", "kernel may use FP/vector?")
	t.Row("legacy, integer-only kernel", intOnly, "no (the usual restriction)")
	t.Row("legacy, FP-using kernel (+save/restore)", withFP, "yes, at a per-call price")
	t.Row("nocs, kernel in own hw thread", nocsPer, "yes, for free")

	res := &Result{Tables: []*metrics.Table{t}}
	res.check("FP-using kernel > integer-only kernel", withFP > intOnly,
		"FP-using %.1f, integer-only %.1f cycles/call", withFP, intOnly)
	return res, nil
}

func runF11(cfg RunConfig) (*Result, error) {
	n := 200
	if cfg.Quick {
		n = 40
	}
	guestSrc := fmt.Sprintf(`
main:
	movi r7, 0
loop:
	movi r1, 2      ; ExitIO
	vmcall
	addi r7, r7, 1
	movi r8, %d
	blt r7, r8, loop
	halt
`, n)

	runLegacy := func(untrusted bool) (float64, error) {
		m := machine.New()
		if untrusted {
			hypervisor.AttachLegacyUntrusted(m.Core(0), hypervisor.Config{})
		} else {
			hypervisor.AttachLegacy(m.Core(0), hypervisor.Config{})
		}
		prog := asm.MustAssemble("g", guestSrc)
		m.Core(0).BindProgram(0, prog, "main")
		m.Core(0).BootStart(0)
		m.Run(0)
		return perOp(m.Now(), n), nil
	}
	trusted, err := runLegacy(false)
	if err != nil {
		return nil, err
	}
	untrusted, err := runLegacy(true)
	if err != nil {
		return nil, err
	}

	var nocsPer float64
	{
		m := machine.New()
		k := kernel.NewNocs(m.Core(0))
		prog := asm.MustAssemble("g", guestSrc)
		m.Core(0).BindProgram(0, prog, "main")
		h, err := hypervisor.ServeGuests(k, []hwthread.PTID{0}, 0x900000, 0xA00000, hypervisor.Config{})
		if err != nil {
			return nil, err
		}
		m.Run(0)
		start := m.Now()
		m.Core(0).BootStart(0)
		m.Run(0)
		if h.Exits() != uint64(n) {
			return nil, fmt.Errorf("F11 nocs: %d exits", h.Exits())
		}
		nocsPer = perOp(m.Now()-start, n)
	}

	t := metrics.NewTable("cycles per I/O VM-exit (I/O body = 2000 cycles)",
		"configuration", "hypervisor privilege", "cycles/exit")
	t.Row("legacy, in-kernel hypervisor (KVM)", "kernel (trusted)", trusted)
	t.Row("legacy, deprivileged hypervisor", "user process", untrusted)
	t.Row("nocs, hypervisor + kernel hw threads", "user hw thread", nocsPer)

	res := &Result{Tables: []*metrics.Table{t}}
	res.check("deprivileged legacy > in-kernel legacy", untrusted > trusted,
		"deprivileged %.1f, in-kernel %.1f cycles/exit", untrusted, trusted)
	res.check("nocs hw-thread chain < deprivileged legacy", nocsPer < untrusted,
		"nocs %.1f, deprivileged %.1f cycles/exit", nocsPer, untrusted)
	res.Notes = append(res.Notes,
		"the nocs hypervisor keeps isolation (user-mode thread) at near-trusted cost — the paper's 'same performance without privileged access'")
	return res, nil
}
