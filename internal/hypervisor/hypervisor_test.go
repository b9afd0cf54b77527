package hypervisor

import (
	"testing"

	"nocs/internal/asm"
	"nocs/internal/hwthread"
	"nocs/internal/kernel"
	"nocs/internal/machine"
	"nocs/internal/sim"
)

// stringOf renders a small non-negative integer for splicing into assembly.
func stringOf(v int64) string {
	// small positive ints only
	digits := ""
	if v == 0 {
		return "0"
	}
	for v > 0 {
		digits = string(rune('0'+v%10)) + digits
		v /= 10
	}
	return digits
}

func TestLegacyTrustedExit(t *testing.T) {
	m := machine.New()
	h := AttachLegacy(m.Core(0), Config{})
	src := `
main:
	movi r7, 0
loop:
	movi r1, 1
	vmcall
	addi r7, r7, 1
	movi r8, 3
	blt r7, r8, loop
	halt
`
	prog := asm.MustAssemble("g", src)
	m.Core(0).BindProgram(0, prog, "main")
	m.Core(0).BootStart(0)
	m.Run(0)
	total, io := h.Exits()
	if total != 3 || io != 0 {
		t.Fatalf("exits %d/%d", total, io)
	}
	if m.Core(0).Threads().Context(0).Regs.GPR[7] != 3 {
		t.Fatal("guest did not complete")
	}
	// Each exit costs at least VMExit + emulate + VMEntry = 1200+400+800.
	if m.Now() < 3*2400 {
		t.Fatalf("elapsed %v too fast", m.Now())
	}
}

func TestLegacyUntrustedCostsMore(t *testing.T) {
	run := func(untrusted bool, kind ExitKind) sim.Cycles {
		m := machine.New()
		if untrusted {
			AttachLegacyUntrusted(m.Core(0), Config{})
		} else {
			AttachLegacy(m.Core(0), Config{})
		}
		src := asm.MustAssemble("g", `
main:
	movi r1, `+stringOf(int64(kind))+`
	vmcall
	halt
`)
		m.Core(0).BindProgram(0, src, "main")
		m.Core(0).BootStart(0)
		m.Run(0)
		return m.Now()
	}
	trusted := run(false, ExitCPU)
	untrusted := run(true, ExitCPU)
	// Untrusted adds 2 context switches = 2400.
	if untrusted-trusted != 2400 {
		t.Fatalf("untrusted penalty %v, want 2400", untrusted-trusted)
	}
	trustedIO := run(false, ExitIO)
	untrustedIO := run(true, ExitIO)
	// IO adds kernel round trip on top: 2400 + 300.
	if untrustedIO-trustedIO != 2700 {
		t.Fatalf("untrusted IO penalty %v, want 2700", untrustedIO-trustedIO)
	}
}

func TestLegacyIOExitCounted(t *testing.T) {
	m := machine.New()
	h := AttachLegacy(m.Core(0), Config{})
	prog := asm.MustAssemble("g", "main:\n\tmovi r1, 2\n\tvmcall\n\thalt")
	m.Core(0).BindProgram(0, prog, "main")
	m.Core(0).BootStart(0)
	m.Run(0)
	total, io := h.Exits()
	if total != 1 || io != 1 {
		t.Fatalf("exits %d/%d", total, io)
	}
}

func TestNocsHypervisorHandlesExits(t *testing.T) {
	m := machine.New()
	k := kernel.NewNocs(m.Core(0))
	prog := asm.MustAssemble("g", `
main:
	movi r7, 0
loop:
	movi r1, 1
	vmcall
	addi r7, r7, 1
	movi r8, 4
	blt r7, r8, loop
	halt
`)
	m.Core(0).BindProgram(0, prog, "main")
	h, err := ServeGuests(k, []hwthread.PTID{0}, 0x90000, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(0) // park the hypervisor
	m.Core(0).BootStart(0)
	m.Run(0)
	if m.Fatal() != nil {
		t.Fatal(m.Fatal())
	}
	if h.Exits() != 4 {
		t.Fatalf("exits %d", h.Exits())
	}
	g := m.Core(0).Threads().Context(0)
	if g.Regs.GPR[7] != 4 || g.State != hwthread.Disabled {
		t.Fatalf("guest r7=%d state=%v", g.Regs.GPR[7], g.State)
	}
}

func TestNocsHypervisorPrivilegedInstructionExit(t *testing.T) {
	// A guest executing wrmsr exits via descriptor; the hypervisor emulates
	// and resumes it. The exit reason register holds whatever is in r1 —
	// here ExitCPU by construction.
	m := machine.New()
	k := kernel.NewNocs(m.Core(0))
	prog := asm.MustAssemble("g", `
main:
	movi r1, 1     ; ExitCPU
	wrmsr r2, r3   ; privileged in user mode -> descriptor exit
	movi r7, 1
	halt
`)
	m.Core(0).BindProgram(0, prog, "main")
	h, err := ServeGuests(k, []hwthread.PTID{0}, 0x90000, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(0)
	m.Core(0).BootStart(0)
	m.Run(0)
	if h.Exits() != 1 {
		t.Fatalf("exits %d", h.Exits())
	}
	if m.Core(0).Threads().Context(0).Regs.GPR[7] != 1 {
		t.Fatal("guest did not resume after emulation")
	}
}

func TestNocsUntrustedIOChain(t *testing.T) {
	// I/O exit: guest -> hypervisor thread -> kernel thread -> guest.
	m := machine.New()
	k := kernel.NewNocs(m.Core(0))
	prog := asm.MustAssemble("g", `
main:
	movi r1, 2     ; ExitIO
	vmcall
	movi r7, 1
	halt
`)
	m.Core(0).BindProgram(0, prog, "main")
	const mailbox = 0xA0000
	h, err := ServeGuests(k, []hwthread.PTID{0}, 0x90000, mailbox, Config{})
	if err != nil {
		t.Fatal(err)
	}
	services := 0 // kernel services are the supervisor-mode threads
	ctxs := m.Core(0).Threads().Contexts()
	for i := range ctxs {
		ctx := &ctxs[i]
		if ctx.Regs.Mode == 1 {
			services++
		}
	}
	if services != 2 {
		t.Fatalf("services %d, want hypervisor + kernel-io", services)
	}
	m.Run(0)
	m.Core(0).BootStart(0)
	m.Run(0)
	if m.Fatal() != nil {
		t.Fatal(m.Fatal())
	}
	if h.Exits() != 1 {
		t.Fatalf("exits %d", h.Exits())
	}
	g := m.Core(0).Threads().Context(0)
	if g.Regs.GPR[7] != 1 {
		t.Fatal("guest did not resume after kernel I/O chain")
	}
}

func TestNocsMultipleGuests(t *testing.T) {
	m := machine.New()
	k := kernel.NewNocs(m.Core(0))
	prog := asm.MustAssemble("g", `
main:
	movi r1, 1
	vmcall
	movi r7, 1
	halt
`)
	guests := []hwthread.PTID{0, 1, 2}
	for _, g := range guests {
		m.Core(0).BindProgram(g, prog, "main")
	}
	h, err := ServeGuests(k, guests, 0x90000, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m.Run(0)
	for _, g := range guests {
		m.Core(0).BootStart(g)
	}
	m.Run(0)
	if h.Exits() != 3 {
		t.Fatalf("exits %d", h.Exits())
	}
	for _, g := range guests {
		if m.Core(0).Threads().Context(g).Regs.GPR[7] != 1 {
			t.Fatalf("guest %d did not resume", g)
		}
	}
}

func TestServeGuestsBadPtid(t *testing.T) {
	m := machine.New()
	k := kernel.NewNocs(m.Core(0))
	if _, err := ServeGuests(k, []hwthread.PTID{999}, 0x90000, 0, Config{}); err == nil {
		t.Fatal("bad guest ptid accepted")
	}
}

func TestNocsChainFasterThanLegacyUntrusted(t *testing.T) {
	// The paper's F11 shape: the deprivileged hw-thread chain must beat the
	// deprivileged legacy hypervisor.
	legacy := func() sim.Cycles {
		m := machine.New()
		AttachLegacyUntrusted(m.Core(0), Config{})
		prog := asm.MustAssemble("g", "main:\n\tmovi r1, 2\n\tvmcall\n\thalt")
		m.Core(0).BindProgram(0, prog, "main")
		m.Core(0).BootStart(0)
		start := m.Now()
		m.Run(0)
		return m.Now() - start
	}()
	nocs := func() sim.Cycles {
		m := machine.New()
		k := kernel.NewNocs(m.Core(0))
		prog := asm.MustAssemble("g", "main:\n\tmovi r1, 2\n\tvmcall\n\thalt")
		m.Core(0).BindProgram(0, prog, "main")
		ServeGuests(k, []hwthread.PTID{0}, 0x90000, 0xA0000, Config{})
		m.Run(0)
		start := m.Now()
		m.Core(0).BootStart(0)
		m.Run(0)
		return m.Now() - start
	}()
	if nocs >= legacy {
		t.Fatalf("nocs chain %v not faster than legacy untrusted %v", nocs, legacy)
	}
}
