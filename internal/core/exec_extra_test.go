package core

import (
	"strings"
	"testing"
	"testing/quick"

	"nocs/internal/asm"
	"nocs/internal/hwthread"
	"nocs/internal/isa"
	"nocs/internal/sim"
)

func TestLogicalAndShiftOps(t *testing.T) {
	r := newRig(2, 2)
	prog := asm.MustAssemble("log", `
main:
	movi r1, 0b1100
	movi r2, 0b1010
	and r3, r1, r2
	or r4, r1, r2
	xor r5, r1, r2
	movi r6, 2
	shl r7, r1, r6
	shr r8, r1, r6
	halt
`)
	r.c.BindProgram(0, prog, "main")
	r.c.BootStart(0)
	r.run(t, 1000)
	g := r.c.Threads().Context(0).Regs.GPR
	if g[3] != 0b1000 || g[4] != 0b1110 || g[5] != 0b0110 {
		t.Fatalf("and/or/xor: %b %b %b", g[3], g[4], g[5])
	}
	if g[7] != 0b110000 || g[8] != 0b11 {
		t.Fatalf("shl/shr: %b %b", g[7], g[8])
	}
}

func TestShiftAmountMasked(t *testing.T) {
	r := newRig(2, 2)
	prog := asm.MustAssemble("sh", `
main:
	movi r1, 1
	movi r2, 65     ; 65 & 63 = 1
	shl r3, r1, r2
	halt
`)
	r.c.BindProgram(0, prog, "main")
	r.c.BootStart(0)
	r.run(t, 100)
	if got := r.c.Threads().Context(0).Regs.GPR[3]; got != 2 {
		t.Fatalf("shl by 65 = %d, want 2 (masked)", got)
	}
}

func TestJALAndJR(t *testing.T) {
	r := newRig(2, 2)
	prog := asm.MustAssemble("call", `
main:
	jal lr, sub
	movi r2, 1      ; returned here
	halt
sub:
	movi r1, 42
	jr lr
`)
	r.c.BindProgram(0, prog, "main")
	r.c.BootStart(0)
	r.run(t, 100)
	g := r.c.Threads().Context(0).Regs.GPR
	if g[1] != 42 || g[2] != 1 {
		t.Fatalf("call/return: r1=%d r2=%d", g[1], g[2])
	}
}

func TestBGEAndBNE(t *testing.T) {
	r := newRig(2, 2)
	prog := asm.MustAssemble("br", `
main:
	movi r1, 5
	movi r2, 5
	bge r1, r2, a     ; taken (equal)
	halt
a:
	bne r1, r2, b     ; not taken
	movi r3, 1
	movi r4, 3
	bge r1, r4, c     ; taken (5 >= 3)
	halt
b:
	movi r9, 99
	halt
c:
	movi r5, 1
	halt
`)
	r.c.BindProgram(0, prog, "main")
	r.c.BootStart(0)
	r.run(t, 100)
	g := r.c.Threads().Context(0).Regs.GPR
	if g[3] != 1 || g[5] != 1 || g[9] != 0 {
		t.Fatalf("branches: %v", g[:10])
	}
}

func TestPCOverrunFaults(t *testing.T) {
	r := newRig(2, 2)
	prog := asm.MustAssemble("o", "main:\n\tnop") // falls off the end
	r.c.BindProgram(0, prog, "main")
	r.c.Threads().Context(0).Regs.EDP = 0x9000
	r.c.BootStart(0)
	r.run(t, 100)
	if d := hwthread.ReadDescriptor(r.mem, 0x9000); d.Cause != hwthread.ExcInvalidOpcode {
		t.Fatalf("overrun descriptor: %+v", d)
	}
}

func TestStopSelfViaTDT(t *testing.T) {
	r := newRig(2, 2)
	prog := asm.MustAssemble("s", `
main:
	movi r1, 0
	stop r1        ; stop ourselves (vtid 0 -> self)
	movi r9, 1     ; runs only if restarted
	halt
`)
	r.c.BindProgram(0, prog, "main")
	r.grantTDT(0, 0x100000, 0, 0, hwthread.PermStop)
	r.c.BootStart(0)
	r.run(t, 100)
	ctx := r.c.Threads().Context(0)
	if ctx.State != hwthread.Disabled || ctx.Regs.GPR[9] != 0 {
		t.Fatalf("self-stop: state=%v r9=%d", ctx.State, ctx.Regs.GPR[9])
	}
	// Restart: resumes after the stop.
	if err := r.c.StartThreadSupervised(0); err != nil {
		t.Fatal(err)
	}
	r.run(t, 100)
	if ctx.Regs.GPR[9] != 1 {
		t.Fatal("did not resume after self-stop")
	}
}

func TestMwaitWithoutMonitorDoesNotBlock(t *testing.T) {
	r := newRig(2, 2)
	prog := asm.MustAssemble("m", "main:\n\tmwait\n\tmovi r1, 1\n\thalt")
	r.c.BindProgram(0, prog, "main")
	r.c.BootStart(0)
	r.run(t, 100)
	ctx := r.c.Threads().Context(0)
	if ctx.State != hwthread.Disabled || ctx.Regs.GPR[1] != 1 {
		t.Fatalf("bare mwait blocked: state=%v", ctx.State)
	}
}

func TestTraceBuffer(t *testing.T) {
	r := newRig(2, 2)
	var tb TraceBuffer
	tb.Max = 3
	r.c.OnExec = tb.Hook()
	prog := asm.MustAssemble("t", "main:\n\tmovi r1, 1\n\tmovi r2, 2\n\tadd r3, r1, r2\n\tnop\n\thalt")
	r.c.BindProgram(0, prog, "main")
	r.c.BootStart(0)
	r.run(t, 100)
	if len(tb.Entries) != 3 || tb.dropped != 2 {
		t.Fatalf("trace: %d entries, %d dropped", len(tb.Entries), tb.dropped)
	}
	s := tb.String()
	for _, want := range []string{"movi r1, 1", "add r3, r1, r2", "dropped"} {
		if !strings.Contains(s, want) {
			t.Fatalf("trace output missing %q:\n%s", want, s)
		}
	}
	if tb.Entries[0].PC != 0 || tb.Entries[2].PC != 2 {
		t.Fatalf("trace PCs: %+v", tb.Entries)
	}
}

func TestTraceUnboundedKeepsAll(t *testing.T) {
	r := newRig(2, 2)
	var tb TraceBuffer
	r.c.OnExec = tb.Hook()
	prog := asm.MustAssemble("t", "main:\n\tnop\n\tnop\n\thalt")
	r.c.BindProgram(0, prog, "main")
	r.c.BootStart(0)
	r.run(t, 100)
	if len(tb.Entries) != 3 || tb.dropped != 0 {
		t.Fatalf("trace: %d/%d", len(tb.Entries), tb.dropped)
	}
}

// Property: random straight-line programs of ALU/memory instructions always
// terminate at the trailing HALT without machine fatals, and runs are
// deterministic.
func TestRandomProgramRobustness(t *testing.T) {
	build := func(ops []uint16) *isa.Program {
		b := isa.NewBuilder("fuzz")
		b.Label("main")
		for _, o := range ops {
			rd := isa.Reg(o % isa.NumGPR)
			rs1 := isa.Reg((o >> 4) % isa.NumGPR)
			rs2 := isa.Reg((o >> 8) % isa.NumGPR)
			switch o % 9 {
			case 0:
				b.Add(rd, rs1, rs2)
			case 1:
				b.Sub(rd, rs1, rs2)
			case 2:
				b.Mul(rd, rs1, rs2)
			case 3:
				b.Movi(rd, int64(o))
			case 4:
				b.Addi(rd, rs1, int64(o%97))
			case 5:
				// Memory ops confined to a positive window.
				b.Movi(isa.R1, int64(0x1000+(o%64)*8))
				b.St(isa.R1, 0, rs2)
			case 6:
				b.Movi(isa.R1, int64(0x1000+(o%64)*8))
				b.Ld(rd, isa.R1, 0)
			case 7:
				b.Emit(isa.Instr{Op: isa.AND, Rd: rd, Rs1: rs1, Rs2: rs2})
			case 8:
				b.Emit(isa.Instr{Op: isa.SLT, Rd: rd, Rs1: rs1, Rs2: rs2})
			}
		}
		b.Halt()
		return b.MustBuild()
	}
	f := func(ops []uint16) bool {
		if len(ops) > 200 {
			ops = ops[:200]
		}
		prog := build(ops)
		run := func() (sim.Cycles, int64) {
			r := newRig(2, 2)
			if err := r.c.BindProgram(0, prog, "main"); err != nil {
				return -3, -3
			}
			r.c.BootStart(0)
			r.eng.Run(0)
			if r.c.Fatal() != nil {
				return -1, -1
			}
			ctx := r.c.Threads().Context(0)
			if ctx.State != hwthread.Disabled {
				return -2, -2
			}
			return r.eng.Now(), ctx.Regs.GPR[2]
		}
		t1, v1 := run()
		t2, v2 := run()
		return t1 > 0 && t1 == t2 && v1 == v2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStopThreadCancelsMonitorWait(t *testing.T) {
	r := newRig(2, 2)
	prog := asm.MustAssemble("w", `
main:
	movi r1, 4096
	monitor r1
	mwait
	movi r2, 1
	halt
`)
	r.c.BindProgram(0, prog, "main")
	r.c.BootStart(0)
	r.run(t, 100) // parks in mwait
	r.c.StopThread(0)
	if r.c.Threads().Context(0).State != hwthread.Disabled {
		t.Fatal("not stopped")
	}
	// A later write must not resurrect it.
	r.c.WriteWord(4096, 1)
	r.run(t, 100)
	if r.c.Threads().Context(0).Regs.GPR[2] != 0 {
		t.Fatal("stopped thread woke")
	}
	r.c.StopThread(0)  // idempotent
	r.c.StopThread(99) // bad ptid is a no-op
}

func TestAccessCostWarmsCaches(t *testing.T) {
	r := newRig(2, 2)
	cold := r.c.AccessCost(0x1000)
	warm := r.c.AccessCost(0x1000)
	if warm >= cold {
		t.Fatalf("warm access %v not cheaper than cold %v", warm, cold)
	}
}
