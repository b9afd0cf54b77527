package kernel_test

import (
	"fmt"
	"testing"

	"nocs/internal/asm"
	"nocs/internal/device"
	"nocs/internal/hwthread"
	"nocs/internal/kernel"
	"nocs/internal/machine"
	"nocs/internal/sim"
	"nocs/internal/ukernel"
)

func blockRig(t *testing.T, slots int) (*machine.Machine, *kernel.BlockDev) {
	t.Helper()
	m := machine.New()
	k := kernel.NewNocs(m.Core(0))
	ssd, err := m.NewSSD(device.SSDConfig{
		SQBase: 0x400000, CQBase: 0x410000,
		DoorbellAddr: 0x9000_0000, CQTailAddr: 0x420000,
		BaseLatency: 2000, PerWord: 2,
	}, device.Signal{})
	if err != nil {
		t.Fatal(err)
	}
	bd, err := kernel.NewBlockDev(k, ssd, 0x430000, slots)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(0) // park driver
	return m, bd
}

func TestBlockDevValidation(t *testing.T) {
	m := machine.New()
	k := kernel.NewNocs(m.Core(0))
	ssd, err := m.NewSSD(device.SSDConfig{
		SQBase: 0x400000, CQBase: 0x410000,
		DoorbellAddr: 0x9000_0000, CQTailAddr: 0x420000,
		Entries: 4,
	}, device.Signal{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kernel.NewBlockDev(k, ssd, 0x430000, 0); err == nil {
		t.Fatal("zero slots accepted")
	}
	if _, err := kernel.NewBlockDev(k, ssd, 0x430000, 8); err == nil {
		t.Fatal("slots beyond queue depth accepted")
	}
}

func TestBlockDevSingleRead(t *testing.T) {
	m, bd := blockRig(t, 2)
	src := fmt.Sprintf(`
main:
	movi r2, %d    ; OpRead
	movi r3, 1234  ; LBA
%s
	mov r9, r1     ; status (0 = ok)
	movi r9, 1
	halt
`, device.OpRead, ukernel.ClientCallSource("bd"))
	prog := asm.MustAssemble("u", src)
	m.Core(0).BindProgram(0, prog, "main")
	m.Core(0).Threads().Context(0).Regs.GPR[10] = bd.SlotBase(0)
	start := m.Now()
	m.Core(0).BootStart(0)
	m.Run(0)
	if m.Fatal() != nil {
		t.Fatal(m.Fatal())
	}
	ctx := m.Core(0).Threads().Context(0)
	if ctx.State != hwthread.Disabled || ctx.Regs.GPR[9] != 1 {
		t.Fatalf("client stuck: %v", ctx.State)
	}
	reads, writes, errs, inFlight := bd.Stats()
	if reads != 1 || writes != 0 || errs != 0 || inFlight != 0 {
		t.Fatalf("stats %d/%d/%d/%d", reads, writes, errs, inFlight)
	}
	// The blocking read must take at least the device time.
	if m.Now()-start < 2000 {
		t.Fatalf("IO too fast: %v", m.Now()-start)
	}
}

func TestBlockDevConcurrentClients(t *testing.T) {
	m, bd := blockRig(t, 3)
	src := fmt.Sprintf(`
main:
	movi r2, %d
	mov r3, r12
%s
	movi r9, 1
	halt
`, device.OpRead, ukernel.ClientCallSource("bd"))
	prog := asm.MustAssemble("u", src)
	for i := 0; i < 3; i++ {
		p := hwthread.PTID(i)
		m.Core(0).BindProgram(p, prog, "main")
		ctx := m.Core(0).Threads().Context(p)
		ctx.Regs.GPR[10] = bd.SlotBase(i)
		ctx.Regs.GPR[12] = int64(1000 * (i + 1))
		m.Core(0).BootStart(p)
	}
	m.Run(0)
	if m.Fatal() != nil {
		t.Fatal(m.Fatal())
	}
	for i := 0; i < 3; i++ {
		ctx := m.Core(0).Threads().Context(hwthread.PTID(i))
		if ctx.Regs.GPR[9] != 1 {
			t.Fatalf("client %d stuck", i)
		}
	}
	reads, _, errs, inFlight := bd.Stats()
	if reads != 3 || errs != 0 || inFlight != 0 {
		t.Fatalf("stats %d/%d/%d", reads, errs, inFlight)
	}
}

func TestBlockDevRepeatedIOsOverlapDeviceTime(t *testing.T) {
	// Two clients issuing back-to-back reads: the device pipeline overlaps
	// their commands, so total time is well under 2× sequential.
	m, bd := blockRig(t, 2)
	const iosPerClient = 5
	src := fmt.Sprintf(`
main:
	movi r7, 0
loop:
	movi r2, %d
	mov r3, r7
%s
	addi r7, r7, 1
	movi r8, %d
	blt r7, r8, loop
	halt
`, device.OpRead, ukernel.ClientCallSource("bd"), iosPerClient)
	prog := asm.MustAssemble("u", src)
	for i := 0; i < 2; i++ {
		p := hwthread.PTID(i)
		m.Core(0).BindProgram(p, prog, "main")
		m.Core(0).Threads().Context(p).Regs.GPR[10] = bd.SlotBase(i)
		m.Core(0).BootStart(p)
	}
	start := m.Now()
	m.Run(0)
	if m.Fatal() != nil {
		t.Fatal(m.Fatal())
	}
	reads, _, _, _ := bd.Stats()
	if reads != 2*iosPerClient {
		t.Fatalf("reads %d", reads)
	}
	elapsed := m.Now() - start
	sequential := sim.Cycles(2 * iosPerClient * 2016)
	if elapsed >= sequential {
		t.Fatalf("no overlap: %v >= %v", elapsed, sequential)
	}
}

func TestBlockDevWriteCounted(t *testing.T) {
	m, bd := blockRig(t, 1)
	src := fmt.Sprintf(`
main:
	movi r2, %d
	movi r3, 77
%s
	movi r9, 1
	halt
`, device.OpWrite, ukernel.ClientCallSource("bd"))
	prog := asm.MustAssemble("u", src)
	m.Core(0).BindProgram(0, prog, "main")
	m.Core(0).Threads().Context(0).Regs.GPR[10] = bd.SlotBase(0)
	m.Core(0).BootStart(0)
	m.Run(0)
	_, writes, _, _ := bd.Stats()
	if writes != 1 {
		t.Fatalf("writes %d", writes)
	}
}
