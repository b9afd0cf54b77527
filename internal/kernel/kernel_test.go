package kernel

import (
	"fmt"
	"strings"
	"testing"

	"nocs/internal/asm"
	"nocs/internal/device"
	"nocs/internal/hwthread"
	"nocs/internal/machine"
	"nocs/internal/sim"
)

func TestLegacySyscallTable(t *testing.T) {
	m := machine.New()
	k := NewLegacy(m.Core(0))
	k.RegisterSyscall(7, func(tc *hwthread.Context, args [4]int64) (int64, sim.Cycles) {
		return args[0] + args[1], 200
	})
	user := asm.MustAssemble("u", `
main:
	movi r1, 7
	movi r2, 30
	movi r3, 12
	syscall
	mov r6, r1
	halt
`)
	m.Core(0).BindProgram(0, user, "main")
	m.Core(0).BootStart(0)
	m.Run(0)
	ctx := m.Core(0).Threads().Context(0)
	if ctx.Regs.GPR[6] != 42 {
		t.Fatalf("syscall result %d", ctx.Regs.GPR[6])
	}
	handled, unknown := k.Syscalls()
	if handled != 1 || unknown != 0 {
		t.Fatalf("counts %d/%d", handled, unknown)
	}
	if k.Core() != m.Core(0) {
		t.Fatal("Core accessor")
	}
}

func TestLegacyUnknownSyscall(t *testing.T) {
	m := machine.New()
	k := NewLegacy(m.Core(0))
	user := asm.MustAssemble("u", "main:\n\tmovi r1, 99\n\tsyscall\n\tmov r6, r1\n\thalt")
	m.Core(0).BindProgram(0, user, "main")
	m.Core(0).BootStart(0)
	m.Run(0)
	if m.Core(0).Threads().Context(0).Regs.GPR[6] != -1 {
		t.Fatal("unknown syscall should return -1")
	}
	_, unknown := k.Syscalls()
	if unknown != 1 {
		t.Fatal("unknown count")
	}
}

func TestLegacyNICIRQServesPackets(t *testing.T) {
	m := machine.New()
	k := NewLegacy(m.Core(0))
	nic, err := m.NewNIC(device.NICConfig{
		RingBase: 0x10000, BufBase: 0x20000,
		TailAddr: 0x30000, HeadAddr: 0x30008,
	}, device.Signal{IRQ: m.IRQ(), Vector: 33})
	if err != nil {
		t.Fatal(err)
	}

	var seqs []int64
	err = k.ServeNICWithIRQ(m.IRQ(), 33, 0, nic.TailAddr(), 0x30008, 150,
		func(seq int64, at sim.Cycles) { seqs = append(seqs, seq) })
	if err != nil {
		t.Fatal(err)
	}
	// Keep the victim thread busy so InjectDelay has a target.
	busy := asm.MustAssemble("b", `
main:
	movi r1, 0
	movi r2, 100000
loop:
	addi r1, r1, 1
	blt r1, r2, loop
	halt
`)
	m.Core(0).BindProgram(0, busy, "main")
	m.Core(0).BootStart(0)
	for i := 0; i < 3; i++ {
		nic.Deliver([]int64{int64(i)})
	}
	m.RunUntil(100000)
	if len(seqs) != 3 {
		t.Fatalf("served %d packets: %v", len(seqs), seqs)
	}
	if m.Mem().Read(0x30008) != 3 {
		t.Fatal("head not published")
	}
	_, delivered, _, _ := m.IRQ().Stats()
	if delivered != 3 {
		t.Fatalf("delivered %d interrupts", delivered)
	}
}

// flexscRig builds a legacy kernel with a FlexSC page of the given size at
// 0x70000, its worker on supervisor ptid 1, and a user thread on ptid 0
// that posts syscall num(arg) into the given slot the way F3's user program
// does: three stores (number, argument, status posted), a spin on the
// status word, a load of the result into r1, and a store that frees the
// slot.
func flexscRig(t *testing.T, entries, slot int, num, arg int64) (*machine.Machine, *Legacy, *FlexSC) {
	t.Helper()
	m := machine.New()
	c := m.Core(0)
	k := NewLegacy(c)
	f := NewFlexSC(k, 0x70000, entries)
	worker := asm.MustAssemble("w", f.WorkerProgramSource())
	c.BindProgram(1, worker, "worker")
	c.Threads().Context(1).Regs.Mode = 1
	user := asm.MustAssemble("u", fmt.Sprintf(`
main:
	movi r5, %d
	st [r10+8], r5      ; num
	movi r5, %d
	st [r10+16], r5     ; arg
	movi r5, 1
	st [r10+0], r5      ; status = posted
spin:
	ld r6, [r10+0]
	movi r5, 2
	bne r6, r5, spin
	ld r1, [r10+24]     ; result
	movi r5, 0
	st [r10+0], r5      ; free slot
	halt
`, num, arg))
	c.BindProgram(0, user, "main")
	c.Threads().Context(0).Regs.GPR[10] = 0x70000 + int64(slot)*flexscEntryBytes
	c.BootStart(1)
	c.BootStart(0)
	return m, k, f
}

func TestFlexSCEndToEnd(t *testing.T) {
	m, k, f := flexscRig(t, 8, 2, 1, 21)
	k.RegisterSyscall(1, func(tc *hwthread.Context, args [4]int64) (int64, sim.Cycles) {
		return args[0] * 2, 100
	})
	m.RunUntil(20000)
	user := m.Core(0).Threads().Context(0)
	if user.State != hwthread.Disabled || user.Regs.GPR[1] != 42 {
		t.Fatalf("flexsc user thread %v, result %d", user.State, user.Regs.GPR[1])
	}
	// The freed slot is not executed again by later scans.
	m.RunUntil(40000)
	if f.Executed() != 1 {
		t.Fatalf("executed %d calls, want 1", f.Executed())
	}
	if st := m.Mem().Read(0x70000 + 2*flexscEntryBytes + flexscStatus); st != flexscFree {
		t.Fatalf("slot status %d after the user freed it", st)
	}
	handled, _ := k.Syscalls()
	if handled != 1 {
		t.Fatal("syscall counted")
	}
}

func TestFlexSCUnknownSyscall(t *testing.T) {
	m, _, f := flexscRig(t, 4, 0, 99, 5)
	m.RunUntil(20000)
	user := m.Core(0).Threads().Context(0)
	if user.State != hwthread.Disabled || user.Regs.GPR[1] != -1 {
		t.Fatalf("unknown flexsc syscall: user thread %v, result %d", user.State, user.Regs.GPR[1])
	}
	if f.Executed() != 1 {
		t.Fatalf("executed %d calls, want 1", f.Executed())
	}
}

func TestNocsServeSyscallsEndToEnd(t *testing.T) {
	m := machine.New()
	k := NewNocs(m.Core(0))
	k.RegisterSyscall(7, func(tc *hwthread.Context, args [4]int64) (int64, sim.Cycles) {
		return args[0] + args[1], 200
	})
	svc, err := k.ServeSyscalls([]hwthread.PTID{0}, 0x80000)
	if err != nil {
		t.Fatal(err)
	}
	if svc == 0 || k.services != 1 {
		t.Fatal("service accounting")
	}
	user := asm.MustAssemble("u", `
main:
	movi r1, 7
	movi r2, 30
	movi r3, 12
	syscall
	mov r6, r1
	halt
`)
	m.Core(0).BindProgram(0, user, "main")
	m.Run(0) // let the service park first
	m.Core(0).BootStart(0)
	m.Run(0)
	if m.Fatal() != nil {
		t.Fatal(m.Fatal())
	}
	ctx := m.Core(0).Threads().Context(0)
	if ctx.Regs.GPR[6] != 42 {
		t.Fatalf("syscall result %d", ctx.Regs.GPR[6])
	}
	if ctx.State != hwthread.Disabled {
		t.Fatalf("user state %v", ctx.State)
	}
	handled, _ := k.Syscalls()
	if handled != 1 {
		t.Fatal("handled count")
	}
}

func TestNocsServeSyscallsMultipleUsersRepeated(t *testing.T) {
	m := machine.New()
	k := NewNocs(m.Core(0))
	k.RegisterSyscall(1, func(tc *hwthread.Context, args [4]int64) (int64, sim.Cycles) {
		return args[0] + 1, 50
	})
	users := []hwthread.PTID{0, 1, 2}
	if _, err := k.ServeSyscalls(users, 0x80000); err != nil {
		t.Fatal(err)
	}
	// Each user makes 5 syscalls in a loop, accumulating results.
	user := asm.MustAssemble("u", `
main:
	movi r7, 0      ; counter
	movi r8, 0      ; accumulator
loop:
	movi r1, 1
	mov r2, r7
	syscall
	add r8, r8, r1
	addi r7, r7, 1
	movi r9, 5
	blt r7, r9, loop
	halt
`)
	m.Run(0)
	for _, u := range users {
		m.Core(0).BindProgram(u, user, "main")
		m.Core(0).BootStart(u)
	}
	m.Run(0)
	if m.Fatal() != nil {
		t.Fatal(m.Fatal())
	}
	for _, u := range users {
		// sum of (i+1) for i=0..4 = 15
		if got := m.Core(0).Threads().Context(u).Regs.GPR[8]; got != 15 {
			t.Fatalf("user %d accumulated %d, want 15", u, got)
		}
	}
	handled, _ := k.Syscalls()
	if handled != 15 {
		t.Fatalf("handled %d, want 15", handled)
	}
}

func TestNocsUnknownSyscallReturnsMinusOne(t *testing.T) {
	m := machine.New()
	k := NewNocs(m.Core(0))
	k.ServeSyscalls([]hwthread.PTID{0}, 0x80000)
	user := asm.MustAssemble("u", "main:\n\tmovi r1, 123\n\tsyscall\n\tmov r6, r1\n\thalt")
	m.Core(0).BindProgram(0, user, "main")
	m.Run(0)
	m.Core(0).BootStart(0)
	m.Run(0)
	if got := m.Core(0).Threads().Context(0).Regs.GPR[6]; got != -1 {
		t.Fatalf("unknown syscall returned %d", got)
	}
	_, unknown := k.Syscalls()
	if unknown != 1 {
		t.Fatal("unknown count")
	}
}

func TestNocsServeDevice(t *testing.T) {
	m := machine.New()
	k := NewNocs(m.Core(0))
	nic, err := m.NewNIC(device.NICConfig{
		RingBase: 0x10000, BufBase: 0x20000,
		TailAddr: 0x30000, HeadAddr: 0x30008,
	}, device.Signal{}) // no IRQ: pure monitor path
	if err != nil {
		t.Fatal(err)
	}

	var seqs []int64
	if _, err := k.ServeDevice("nic-rx", nic.TailAddr(), 0x30008, 150,
		func(seq int64, at sim.Cycles) { seqs = append(seqs, seq) }); err != nil {
		t.Fatal(err)
	}
	m.Run(0) // park
	for i := 0; i < 4; i++ {
		nic.Deliver([]int64{int64(i)})
		m.Run(0)
	}
	if len(seqs) != 4 {
		t.Fatalf("served %v", seqs)
	}
	if m.Mem().Read(0x30008) != 4 {
		t.Fatal("head not published")
	}
	// No interrupts were involved.
	raised, _, _, _ := m.IRQ().Stats()
	if raised != 0 {
		t.Fatal("IRQ raised on nocs path")
	}
}

func TestNocsServeDeviceBatchesBursts(t *testing.T) {
	m := machine.New()
	k := NewNocs(m.Core(0))
	count := 0
	k.ServeDevice("burst", 0x30000, 0x30008, 10,
		func(seq int64, at sim.Cycles) { count++ })
	m.Run(0)
	// Burst of 5 arrives while the service processes the first: all drained.
	nic, err := m.NewNIC(device.NICConfig{
		RingBase: 0x10000, BufBase: 0x20000,
		TailAddr: 0x30000, HeadAddr: 0x30008,
	}, device.Signal{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		nic.Deliver([]int64{1})
	}
	m.Run(0)
	if count != 5 {
		t.Fatalf("drained %d of 5", count)
	}
}

func TestAllocPtidExhaustion(t *testing.T) {
	m := machine.New()
	k := NewNocs(m.Core(0))
	n := m.Core(0).Threads().Len()
	for i := 0; i < n; i++ {
		if _, err := k.AllocPtid(); err != nil {
			t.Fatalf("alloc %d failed: %v", i, err)
		}
	}
	if _, err := k.AllocPtid(); err == nil || !strings.Contains(err.Error(), "out of") {
		t.Fatalf("exhaustion error: %v", err)
	}
}

func TestRequestRunnerCompletesAndShares(t *testing.T) {
	m := machine.New()
	k := NewNocs(m.Core(0))
	r := k.NewRequestRunner(100)

	var done []sim.Cycles
	if err := r.Start(0, 1000, func(at sim.Cycles) { done = append(done, at) }); err != nil {
		t.Fatal(err)
	}
	m.Run(0)
	if len(done) != 1 {
		t.Fatal("request did not complete")
	}
	solo := done[0]

	// Same demand with 7 siblings on 2 slots: each runs ~4x slower.
	m2 := machine.New()
	k2 := NewNocs(m2.Core(0))
	r2 := k2.NewRequestRunner(100)
	var last sim.Cycles
	for i := 0; i < 8; i++ {
		if err := r2.Start(hwthread.PTID(i), 1000, func(at sim.Cycles) { last = at }); err != nil {
			t.Fatal(err)
		}
	}
	m2.Run(0)
	ratio := float64(last) / float64(solo)
	if ratio < 2.5 || ratio > 6 {
		t.Fatalf("PS sharing ratio %.2f, want ~4", ratio)
	}

	// Thread reusable after completion.
	if err := r.Start(0, 100, nil); err != nil {
		t.Fatalf("reuse: %v", err)
	}
	m.Run(0)
}

func TestRequestRunnerErrors(t *testing.T) {
	m := machine.New()
	k := NewNocs(m.Core(0))
	r := k.NewRequestRunner(0) // clamps to default
	if err := r.Start(999, 100, nil); err == nil {
		t.Fatal("bad ptid")
	}
	if err := r.Start(0, 100, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Start(0, 100, nil); err == nil {
		t.Fatal("double start on busy ptid")
	}
}
