package hwthread

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"nocs/internal/isa"
	"nocs/internal/mem"
)

// setupTDT builds a manager with n threads and a TDT for caller at base,
// granting perm over target via vtid.
func setupTDT(t *testing.T, n int) (*Manager, *mem.Memory) {
	t.Helper()
	m := mem.NewMemory()
	return NewManager(m, n), m
}

func grant(m *mem.Memory, caller *Context, base int64, vtid VTID, target PTID, p Perm) {
	if caller.Regs.TDT == 0 {
		caller.Regs.TDT = base
	}
	WriteTDTEntry(m, caller.Regs.TDT, vtid, Entry{PTID: target, Perm: p})
}

func TestStateString(t *testing.T) {
	if Disabled.String() != "disabled" || Runnable.String() != "runnable" || Waiting.String() != "waiting" {
		t.Fatal("state names")
	}
	if !strings.Contains(State(9).String(), "9") {
		t.Fatal("unknown state")
	}
}

func TestPermStringMatchesTable1(t *testing.T) {
	// Table 1 rows: 0b1000, 0b0000, 0b1111, 0b1110.
	cases := map[Perm]string{
		PermStart:                             "0b1000",
		0:                                     "0b0000",
		PermAll:                               "0b1111",
		PermStart | PermStop | PermModifySome: "0b1110",
		PermStop | PermModifyMost:             "0b0101",
	}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("Perm(%d).String() = %s, want %s", p, p.String(), want)
		}
	}
}

func TestTDTEntryRoundTrip(t *testing.T) {
	m := mem.NewMemory()
	WriteTDTEntry(m, 0x1000, 3, Entry{PTID: 7, Perm: PermAll})
	e := ReadTDTEntry(m, 0x1000, 3)
	if e.PTID != 7 || e.Perm != PermAll || !e.Valid() {
		t.Fatalf("entry %+v", e)
	}
	if ReadTDTEntry(m, 0x1000, 4).Valid() {
		t.Fatal("unwritten entry valid")
	}
}

func TestTable1Exact(t *testing.T) {
	// Reproduce the paper's Table 1 and probe each row's semantics.
	mgr, m := setupTDT(t, 0x20)
	caller := mgr.Context(2) // arbitrary user thread
	caller.Regs.TDT = 0x8000
	rows := []struct {
		vtid VTID
		ptid PTID
		perm Perm
	}{
		{0x0, 0x01, 0b1000},
		{0x1, 0x00, 0b0000}, // invalid
		{0x2, 0x10, 0b1111},
		{0x3, 0x11, 0b1110},
	}
	for _, r := range rows {
		WriteTDTEntry(m, caller.Regs.TDT, r.vtid, Entry{PTID: r.ptid, Perm: r.perm})
	}

	// vtid 0x0: start only.
	if _, f := mgr.Start(caller, 0x0); f != nil {
		t.Fatalf("start via 0b1000: %v", f)
	}
	if _, f := mgr.Stop(caller, 0x0); f == nil {
		t.Fatal("stop via 0b1000 should fault")
	}
	if _, f := mgr.Rpull(caller, 0x0, isa.R1); f == nil {
		t.Fatal("rpull via 0b1000 should fault")
	}

	// vtid 0x1: invalid.
	if _, f := mgr.Start(caller, 0x1); f == nil || f.Cause != ExcTDTFault {
		t.Fatalf("start via invalid row: %v", f)
	}

	// vtid 0x2: full rights, including control registers.
	if _, f := mgr.Start(caller, 0x2); f != nil {
		t.Fatalf("start via 0b1111: %v", f)
	}
	if _, f := mgr.Stop(caller, 0x2); f != nil {
		t.Fatalf("stop via 0b1111: %v", f)
	}
	if f := mgr.Rpush(caller, 0x2, isa.PC, 42); f != nil {
		t.Fatalf("rpush pc via 0b1111: %v", f)
	}
	if v, f := mgr.Rpull(caller, 0x2, isa.PC); f != nil || v != 42 {
		t.Fatalf("rpull pc via 0b1111: %v %v", v, f)
	}

	// vtid 0x3: everything except modify-most.
	if f := mgr.Rpush(caller, 0x3, isa.R5, 9); f != nil {
		t.Fatalf("rpush GPR via 0b1110: %v", f)
	}
	if f := mgr.Rpush(caller, 0x3, isa.PC, 9); f == nil {
		t.Fatal("rpush pc via 0b1110 should fault")
	}
}

func TestNonHierarchicalPrivilege(t *testing.T) {
	// §3.2: "thread B might have permission to stop thread A, and thread C
	// might have permission to stop thread B, but thread C does not
	// necessarily have any permission over thread A. Such a configuration is
	// impossible in existing protection-ring-based designs."
	mgr, m := setupTDT(t, 8)
	a, b, c := mgr.Context(0), mgr.Context(1), mgr.Context(2)
	a.State, b.State, c.State = Runnable, Runnable, Runnable

	grant(m, b, 0x1000, 0, a.PTID, PermStop) // B may stop A
	grant(m, c, 0x2000, 0, b.PTID, PermStop) // C may stop B
	// C's table has no row for A.

	if _, f := mgr.Stop(b, 0); f != nil {
		t.Fatalf("B stopping A: %v", f)
	}
	if _, f := mgr.Stop(c, 0); f != nil {
		t.Fatalf("C stopping B: %v", f)
	}
	// C over A must fault: vtid 1 is absent from C's table.
	if _, f := mgr.Stop(c, 1); f == nil {
		t.Fatal("C stopped A without permission (transitive privilege)")
	}
}

// TestPermissionMatrix drives every one of the 16 TDT permission nibbles
// through every remote-operation class, in both user and supervisor mode:
// 16 × 2 × 6 cells. The expected outcome is computable — an invalid row
// (nibble 0b0000) faults on translation for everyone, a supervisor bypasses
// the permission bits of any valid row, and a user succeeds iff the row
// grants the operation's required bit — so the matrix subsumes the old
// supervisor-bypass and single-nibble spot checks.
func TestPermissionMatrix(t *testing.T) {
	ops := []struct {
		name string
		need Perm
		run  func(mgr *Manager, caller *Context) *Fault
	}{
		{"start", PermStart, func(mgr *Manager, caller *Context) *Fault {
			_, f := mgr.Start(caller, 0)
			return f
		}},
		{"stop", PermStop, func(mgr *Manager, caller *Context) *Fault {
			_, f := mgr.Stop(caller, 0)
			return f
		}},
		{"rpull-gpr", PermModifySome, func(mgr *Manager, caller *Context) *Fault {
			_, f := mgr.Rpull(caller, 0, isa.R3)
			return f
		}},
		{"rpush-gpr", PermModifySome, func(mgr *Manager, caller *Context) *Fault {
			return mgr.Rpush(caller, 0, isa.R3, 7)
		}},
		{"rpull-control", PermModifyMost, func(mgr *Manager, caller *Context) *Fault {
			_, f := mgr.Rpull(caller, 0, isa.PC)
			return f
		}},
		{"rpush-control", PermModifyMost, func(mgr *Manager, caller *Context) *Fault {
			return mgr.Rpush(caller, 0, isa.EDP, 0x4000)
		}},
	}
	modes := []struct {
		name  string
		super bool
	}{{"user", false}, {"supervisor", true}}

	for perm := Perm(0); perm < 16; perm++ {
		for _, mode := range modes {
			for _, op := range ops {
				t.Run(fmt.Sprintf("%v/%s/%s", perm, mode.name, op.name), func(t *testing.T) {
					mgr, m := setupTDT(t, 4)
					caller := mgr.Context(0)
					if mode.super {
						caller.Regs.Mode = 1
					}
					caller.Regs.TDT = 0x1000
					WriteTDTEntry(m, 0x1000, 0, Entry{PTID: 2, Perm: perm})
					target := mgr.Context(2)
					if op.name == "stop" {
						target.State = Runnable // the others need a disabled target
					}
					f := op.run(mgr, caller)
					switch {
					case perm == 0:
						// Invalid row: translation faults even for supervisors.
						if f == nil || f.Cause != ExcTDTFault {
							t.Fatalf("invalid row: want TDT fault, got %v", f)
						}
					case mode.super || perm.Has(op.need):
						if f != nil {
							t.Fatalf("perm %v should allow %s: %v", perm, op.name, f)
						}
						switch op.name {
						case "start":
							if target.State != Runnable {
								t.Fatal("start did not enable target")
							}
						case "stop":
							if target.State != Disabled {
								t.Fatal("stop did not disable target")
							}
						}
					default:
						if f == nil || f.Cause != ExcTDTFault {
							t.Fatalf("perm %v must deny %s, got %v", perm, op.name, f)
						}
						if f.Info != int64(op.need) {
							t.Fatalf("fault info = %#x, want required bits %#x", f.Info, int64(op.need))
						}
					}
				})
			}
		}
	}
}

// memOf digs the memory out of a manager for test convenience.
func memOf(m *Manager) *mem.Memory { return m.mem }

// TestTDTRegisterSupervisorOnly: the TDT register is outside the nibble's
// reach entirely — no permission grant, not even 0b1111, lets a user thread
// touch another thread's TDT, while a supervisor may through any valid row.
func TestTDTRegisterSupervisorOnly(t *testing.T) {
	for perm := Perm(1); perm < 16; perm++ {
		mgr, m := setupTDT(t, 4)
		caller := mgr.Context(0)
		grant(m, caller, 0x1000, 0, 2, perm)
		if f := mgr.Rpush(caller, 0, isa.TDT, 0xdead); f == nil || f.Cause != ExcPrivilege {
			t.Fatalf("perm %v: user TDT write fault = %v, want privilege fault", perm, f)
		}
		if _, f := mgr.Rpull(caller, 0, isa.TDT); f == nil || f.Cause != ExcPrivilege {
			t.Fatalf("perm %v: user TDT read fault = %v, want privilege fault", perm, f)
		}
		caller.Regs.Mode = 1
		if f := mgr.Rpush(caller, 0, isa.TDT, 0x9000); f != nil {
			t.Fatalf("perm %v: supervisor TDT write: %v", perm, f)
		}
		if mgr.Context(2).Regs.TDT != 0x9000 {
			t.Fatalf("perm %v: TDT write did not land", perm)
		}
	}
}

func TestInvtidRequiredAfterUpdate(t *testing.T) {
	mgr, m := setupTDT(t, 4)
	caller := mgr.Context(0)
	grant(m, caller, 0x1000, 0, 1, PermStart|PermStop)

	// First use caches the translation.
	if _, f := mgr.Start(caller, 0); f != nil {
		t.Fatal(f)
	}
	if len(caller.tdtCache) != 1 {
		t.Fatalf("cached = %d", len(caller.tdtCache))
	}

	// Software redirects vtid 0 to ptid 2 — without invtid the stale
	// translation must still be in effect.
	WriteTDTEntry(m, 0x1000, 0, Entry{PTID: 2, Perm: PermStart | PermStop})
	if _, f := mgr.Start(caller, 0); f != nil {
		t.Fatal(f)
	}
	if mgr.Context(2).State == Runnable {
		t.Fatal("new mapping took effect without invtid")
	}
	if mgr.Context(1).State != Runnable {
		t.Fatal("stale mapping not used")
	}

	// After invtid the new mapping applies.
	caller.InvalidateVTID(0)
	if _, f := mgr.Start(caller, 0); f != nil {
		t.Fatal(f)
	}
	if mgr.Context(2).State != Runnable {
		t.Fatal("new mapping not used after invtid")
	}
}

func TestInvalidRowsAreCachedToo(t *testing.T) {
	mgr, m := setupTDT(t, 4)
	caller := mgr.Context(0)
	caller.Regs.TDT = 0x1000
	// vtid 5 invalid -> fault, and the invalid row is cached.
	if _, f := mgr.Start(caller, 5); f == nil {
		t.Fatal("want fault")
	}
	WriteTDTEntry(m, 0x1000, 5, Entry{PTID: 1, Perm: PermStart})
	if _, f := mgr.Start(caller, 5); f == nil {
		t.Fatal("stale invalid row should still fault before invtid")
	}
	caller.InvalidateVTID(5)
	if _, f := mgr.Start(caller, 5); f != nil {
		t.Fatalf("after invtid: %v", f)
	}
}

func TestTranslateErrors(t *testing.T) {
	mgr, m := setupTDT(t, 2)
	caller := mgr.Context(0)
	// No TDT at all.
	if _, f := mgr.Translate(caller, 0); f == nil {
		t.Fatal("no-TDT translate should fault")
	}
	caller.Regs.TDT = 0x1000
	if _, f := mgr.Translate(caller, -1); f == nil {
		t.Fatal("negative vtid should fault")
	}
	// Out-of-range ptid in a valid row.
	WriteTDTEntry(m, 0x1000, 1, Entry{PTID: 99, Perm: PermAll})
	if _, f := mgr.Translate(caller, 1); f == nil {
		t.Fatal("out-of-range ptid should fault")
	}
}

func TestStartStopIdempotence(t *testing.T) {
	mgr, m := setupTDT(t, 4)
	caller := mgr.Context(0)
	grant(m, caller, 0x1000, 0, 1, PermStart|PermStop)
	target := mgr.Context(1)
	mgr.Start(caller, 0)
	mgr.Start(caller, 0)
	if target.Starts != 1 {
		t.Fatalf("starts = %d, want 1 (idempotent)", target.Starts)
	}
	mgr.Stop(caller, 0)
	mgr.Stop(caller, 0)
	if target.Stops != 1 {
		t.Fatalf("stops = %d, want 1 (idempotent)", target.Stops)
	}
}

func TestRemoteAccessRequiresDisabledTarget(t *testing.T) {
	mgr, m := setupTDT(t, 4)
	caller := mgr.Context(0)
	grant(m, caller, 0x1000, 0, 1, PermAll)
	target := mgr.Context(1)
	target.State = Runnable
	if _, f := mgr.Rpull(caller, 0, isa.R1); f == nil {
		t.Fatal("rpull of runnable thread should fault")
	}
	target.State = Waiting
	if f := mgr.Rpush(caller, 0, isa.R1, 5); f == nil {
		t.Fatal("rpush of waiting thread should fault")
	}
	target.State = Disabled
	if f := mgr.Rpush(caller, 0, isa.R1, 5); f != nil {
		t.Fatalf("rpush of disabled thread: %v", f)
	}
}

func TestRpullRpushRoundTrip(t *testing.T) {
	mgr, m := setupTDT(t, 4)
	caller := mgr.Context(0)
	grant(m, caller, 0x1000, 0, 1, PermAll)
	for _, r := range []isa.Reg{isa.R0, isa.R7, isa.F3, isa.PC, isa.EDP, isa.Mode} {
		if f := mgr.Rpush(caller, 0, r, 1234); f != nil {
			t.Fatalf("rpush %v: %v", r, f)
		}
		v, f := mgr.Rpull(caller, 0, r)
		if f != nil || v != 1234 {
			t.Fatalf("rpull %v = %d, %v", r, v, f)
		}
	}
	if f := mgr.Rpush(caller, 0, isa.NumRegs, 1); f == nil {
		t.Fatal("invalid register accepted")
	}
}

func TestRaiseExceptionWritesDescriptorAndDisables(t *testing.T) {
	mgr, m := setupTDT(t, 2)
	tctx := mgr.Context(0)
	tctx.State = Runnable
	tctx.Regs.PC = 17
	tctx.Regs.EDP = 0x4000
	if f := mgr.RaiseException(tctx, ExcDivideByZero, 99); f != nil {
		t.Fatalf("raise: %v", f)
	}
	if tctx.State != Disabled {
		t.Fatal("faulting thread not disabled")
	}
	d := ReadDescriptor(m, 0x4000)
	if d.Cause != ExcDivideByZero || d.PC != 17 || d.Info != 99 || d.PTID != 0 {
		t.Fatalf("descriptor %+v", d)
	}
	ClearDescriptor(m, 0x4000)
	if ReadDescriptor(m, 0x4000).Cause != ExcNone {
		t.Fatal("descriptor not cleared")
	}
}

func TestRaiseExceptionNoHandlerIsTripleFault(t *testing.T) {
	mgr, _ := setupTDT(t, 2)
	tctx := mgr.Context(0)
	tctx.State = Runnable
	f := mgr.RaiseException(tctx, ExcDivideByZero, 0)
	if f == nil || f.Cause != ExcNoHandler {
		t.Fatalf("fault = %v", f)
	}
	if tctx.State != Disabled {
		t.Fatal("thread not disabled")
	}
}

func TestDescriptorDoorbellOrder(t *testing.T) {
	// The cause word must be written last so a handler monitoring it sees a
	// complete descriptor.
	m := mem.NewMemory()
	var got []int64
	obs := observerFunc(func(addr, val int64, src mem.WriteSource) {
		got = append(got, addr)
	})
	m.AddObserver(obs)
	WriteDescriptor(m, 0x100, Descriptor{Cause: ExcSyscall, PC: 1, Info: 2, PTID: 3})
	if len(got) != 4 || got[len(got)-1] != 0x100+DescCauseOff {
		t.Fatalf("write order %v: doorbell must be last", got)
	}
}

type observerFunc func(addr, val int64, src mem.WriteSource)

func (f observerFunc) ObserveWrite(addr, val int64, src mem.WriteSource) { f(addr, val, src) }

func TestContextWeight(t *testing.T) {
	c := &Context{}
	if c.Weight() != 1 {
		t.Fatal("default weight")
	}
	c.Priority = 4
	if c.Weight() != 4 {
		t.Fatal("explicit weight")
	}
	c.Priority = -3
	if c.Weight() != 1 {
		t.Fatal("negative priority clamped")
	}
}

func TestManagerBounds(t *testing.T) {
	mgr, _ := setupTDT(t, 3)
	if mgr.Len() != 3 {
		t.Fatal("Len")
	}
	if mgr.Context(-1) != nil || mgr.Context(3) != nil {
		t.Fatal("out-of-range context not nil")
	}
	if len(mgr.Contexts()) != 3 {
		t.Fatal("Contexts")
	}
}

func TestExcCauseStrings(t *testing.T) {
	for c := ExcNone; c <= ExcNoHandler; c++ {
		if c.String() == "" || strings.Contains(c.String(), "cause(") {
			t.Errorf("cause %d has no name", c)
		}
	}
	if !strings.Contains(ExcCause(99).String(), "99") {
		t.Fatal("unknown cause")
	}
}

// Property: permission authorization is exactly the 4-bit mask — an
// operation needing bits N succeeds iff N ⊆ granted, for user callers.
func TestPermissionMaskProperty(t *testing.T) {
	f := func(granted, need uint8) bool {
		g, n := Perm(granted&0xf), Perm(need&0xf)
		caller := &Context{}
		fault := authorize(caller, Entry{PTID: 1, Perm: g}, n)
		return (fault == nil) == g.Has(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: state machine legality. Start only moves Disabled→Runnable;
// Stop moves anything→Disabled; both are idempotent.
func TestStateTransitionProperty(t *testing.T) {
	f := func(ops []bool, initial uint8) bool {
		mgr, m := NewManager(mem.NewMemory(), 2), mem.NewMemory()
		_ = m
		caller := mgr.Context(0)
		caller.Regs.Mode = 1 // supervisor: skip TDT setup
		caller.Regs.TDT = 0x100
		WriteTDTEntry(memOf(mgr), 0x100, 0, Entry{PTID: 1, Perm: PermStart | PermStop})
		target := mgr.Context(1)
		target.State = State(initial % 3)
		if target.State == Waiting {
			target.State = Disabled // waiting requires monitor engine involvement
		}
		for _, start := range ops {
			prev := target.State
			if start {
				mgr.Start(caller, 0)
				if prev == Disabled && target.State != Runnable {
					return false
				}
				if prev == Runnable && target.State != Runnable {
					return false
				}
			} else {
				mgr.Stop(caller, 0)
				if target.State != Disabled {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTranslateOutOfRangeCachedStillFaults(t *testing.T) {
	// The first translation of an out-of-range row caches the entry before
	// the range check; retrying the same vtid (e.g. a handler restarting the
	// faulter with PC unadvanced) hits the cache path, which must fault the
	// same way rather than index the context table out of range.
	mgr, m := setupTDT(t, 2)
	caller := mgr.Context(0)
	caller.Regs.TDT = 0x1000
	WriteTDTEntry(m, 0x1000, 3, Entry{PTID: 99, Perm: PermAll})
	for i := 0; i < 2; i++ {
		_, f := mgr.Translate(caller, 3)
		if f == nil || f.Cause != ExcTDTFault {
			t.Fatalf("attempt %d: want TDT fault, got %v", i, f)
		}
	}
}
