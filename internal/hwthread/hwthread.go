// Package hwthread models the paper's hardware thread contexts (§3):
// physical thread IDs (ptids) with runnable/waiting/disabled states, virtual
// thread IDs (vtids) translated through a Thread Descriptor Table (TDT),
// the 4-bit permission model of Table 1, and exception descriptors.
//
// The TDT lives in simulated physical memory (its base is the per-thread TDT
// control register) and is *cached* by the hardware on first translation.
// Updating the in-memory table without executing invtid leaves the stale
// translation in effect — exactly the behavior §3.1 requires ("Any update to
// a ptid's TDT must be followed by an invtid. Requiring explicit
// invalidation facilitates hardware caching and virtualization.").
package hwthread

import (
	"fmt"

	"nocs/internal/isa"
	"nocs/internal/mem"
	"nocs/internal/sim"
)

// PTID is a physical hardware thread identifier, unique per core.
type PTID int

// VTID is a virtual thread identifier, translated to a PTID via the TDT.
type VTID int64

// State is the execution state of a ptid (§3: "a given ptid can be in one of
// three states: runnable, waiting, or disabled").
type State uint8

const (
	// Disabled ptids do not execute until another ptid starts them.
	Disabled State = iota
	// Runnable ptids compete for pipeline issue slots.
	Runnable
	// Waiting ptids are blocked in mwait until a watched write occurs.
	Waiting
)

// String names the state.
func (s State) String() string {
	switch s {
	case Disabled:
		return "disabled"
	case Runnable:
		return "runnable"
	case Waiting:
		return "waiting"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Perm is the TDT permission nibble from Table 1: "The 4 permission bits
// allow the caller to start - stop - modify some registers - modify most
// registers of the callee." Bit 3 is start, bit 0 is modify-most, matching
// the table's 0b1000 = start-only row.
type Perm uint8

const (
	// PermStart allows starting (enabling) the callee.
	PermStart Perm = 1 << 3
	// PermStop allows stopping (disabling) the callee.
	PermStop Perm = 1 << 2
	// PermModifySome allows rpull/rpush of general-purpose and FP registers.
	PermModifySome Perm = 1 << 1
	// PermModifyMost additionally allows PC, Mode and EDP. The TDT register
	// is never remotely writable without supervisor mode (§3.2).
	PermModifyMost Perm = 1 << 0

	// PermAll grants every capability in the nibble.
	PermAll = PermStart | PermStop | PermModifySome | PermModifyMost
)

// Has reports whether all bits in q are present.
func (p Perm) Has(q Perm) bool { return p&q == q }

// String renders the nibble as in Table 1, e.g. "0b1110".
func (p Perm) String() string {
	b := [4]byte{'0', '0', '0', '0'}
	if p.Has(PermStart) {
		b[0] = '1'
	}
	if p.Has(PermStop) {
		b[1] = '1'
	}
	if p.Has(PermModifySome) {
		b[2] = '1'
	}
	if p.Has(PermModifyMost) {
		b[3] = '1'
	}
	return "0b" + string(b[:])
}

// Entry is one TDT row: the ptid a vtid maps to and the caller's rights over
// it. An all-zero permission nibble marks the row invalid (Table 1 row 0x1).
type Entry struct {
	PTID PTID
	Perm Perm
}

// Valid reports whether the entry grants any capability at all.
func (e Entry) Valid() bool { return e.Perm != 0 }

// TDT memory layout: 16 bytes per entry at base + 16*vtid:
//
//	+0: ptid
//	+8: permission nibble
const (
	tdtEntryBytes = 16
	tdtPTIDOff    = 0
	tdtPermOff    = 8
)

// WriteTDTEntry stores a TDT row into simulated memory. Software (kernels,
// hypervisors) uses this to build tables; hardware only reads them.
func WriteTDTEntry(m *mem.Memory, base int64, vtid VTID, e Entry) {
	addr := base + int64(vtid)*tdtEntryBytes
	m.Write(addr+tdtPTIDOff, int64(e.PTID), mem.SrcCPU)
	m.Write(addr+tdtPermOff, int64(e.Perm), mem.SrcCPU)
}

// ReadTDTEntry loads a TDT row from simulated memory.
func ReadTDTEntry(m *mem.Memory, base int64, vtid VTID) Entry {
	addr := base + int64(vtid)*tdtEntryBytes
	return Entry{
		PTID: PTID(m.Read(addr + tdtPTIDOff)),
		Perm: Perm(m.Read(addr + tdtPermOff)),
	}
}

// ExcCause identifies why a ptid was disabled with an exception descriptor.
type ExcCause int64

const (
	// ExcNone marks an empty descriptor slot.
	ExcNone ExcCause = iota
	// ExcDivideByZero is raised by DIV with a zero divisor.
	ExcDivideByZero
	// ExcInvalidOpcode is raised by undefined instructions or PC overrun.
	ExcInvalidOpcode
	// ExcPrivilege is raised by privileged instructions in user mode —
	// the mechanism §3.2 uses to let supervisor ptids emulate privileged
	// instructions for guests.
	ExcPrivilege
	// ExcTDTFault is raised when a thread-management instruction names an
	// invalid vtid or lacks the required permission.
	ExcTDTFault
	// ExcSyscall marks a syscall request descriptor (nocs personality:
	// SYSCALL from a user ptid writes a descriptor instead of mode-switching).
	ExcSyscall
	// ExcVMExit marks a guest exit descriptor (vmcall / emulated privileged
	// instruction from a guest ptid).
	ExcVMExit
	// ExcNoHandler is a meta-cause: an exception occurred in a thread whose
	// EDP is zero. §3.2: "Triggering an exception in a thread without a
	// handler ... indicates a serious kernel bug akin to a triple-fault."
	ExcNoHandler
)

// String names the cause.
func (c ExcCause) String() string {
	switch c {
	case ExcNone:
		return "none"
	case ExcDivideByZero:
		return "div0"
	case ExcInvalidOpcode:
		return "invalid-opcode"
	case ExcPrivilege:
		return "privilege"
	case ExcTDTFault:
		return "tdt-fault"
	case ExcSyscall:
		return "syscall"
	case ExcVMExit:
		return "vm-exit"
	case ExcNoHandler:
		return "no-handler"
	}
	return fmt.Sprintf("cause(%d)", int64(c))
}

// Exception descriptor memory layout at EDP (32 bytes):
//
//	+0:  cause   (written LAST — it is the doorbell handlers monitor)
//	+8:  faulting pc
//	+16: info    (cause-specific: syscall number, exit reason, bad vtid...)
//	+24: faulting ptid
const (
	// DescBytes is the size of one exception descriptor.
	DescBytes = 32
	descCause = 0
	descPC    = 8
	descInfo  = 16
	descPTID  = 24
	// DescCauseOff is the offset of the cause/doorbell word, exported for
	// handlers that monitor it.
	DescCauseOff = descCause
)

// Descriptor is a decoded exception descriptor.
type Descriptor struct {
	Cause ExcCause
	PC    int64
	Info  int64
	PTID  PTID
}

// WriteDescriptor stores d at addr, doorbell word last, so a handler
// monitoring addr wakes only after the payload is visible.
func WriteDescriptor(m *mem.Memory, addr int64, d Descriptor) {
	m.Write(addr+descPC, d.PC, mem.SrcCPU)
	m.Write(addr+descInfo, d.Info, mem.SrcCPU)
	m.Write(addr+descPTID, int64(d.PTID), mem.SrcCPU)
	m.Write(addr+descCause, int64(d.Cause), mem.SrcCPU)
}

// ReadDescriptor loads a descriptor from addr.
func ReadDescriptor(m *mem.Memory, addr int64) Descriptor {
	return Descriptor{
		Cause: ExcCause(m.Read(addr + descCause)),
		PC:    m.Read(addr + descPC),
		Info:  m.Read(addr + descInfo),
		PTID:  PTID(m.Read(addr + descPTID)),
	}
}

// ClearDescriptor zeroes the doorbell word so the slot can be reused.
func ClearDescriptor(m *mem.Memory, addr int64) {
	m.Write(addr+descCause, int64(ExcNone), mem.SrcCPU)
}

// Context is the full hardware state of one ptid.
type Context struct {
	PTID     PTID
	State    State
	Regs     isa.RegFile
	Prog     *isa.Program // bound instruction memory
	Priority int          // pipeline weight; 0 means default (1)

	// Track is the ptid's trace timeline, lazily registered by the core on
	// the thread's first state transition (0 = none yet). Stored as a plain
	// int32 (the value of a trace.TrackID) so this package stays independent
	// of the tracing layer.
	Track int32

	// tdtCache is the hardware TDT translation cache, made on the first
	// translation it caches (reads and deletes of a nil map are safe).
	tdtCache map[VTID]Entry

	// Statistics.
	Starts      uint64
	Stops       uint64
	Wakeups     uint64
	Retired     uint64
	LastStarted sim.Cycles
	// LastHalt records when the thread executed HALT (program completion
	// timestamp for benchmarks).
	LastHalt sim.Cycles
}

// Supervisor reports whether the context runs in supervisor mode (§3.2).
func (c *Context) Supervisor() bool { return c.Regs.Mode != 0 }

// Weight returns the pipeline scheduling weight (≥1).
func (c *Context) Weight() int {
	if c.Priority < 1 {
		return 1
	}
	return c.Priority
}

// InvalidateVTID drops a cached translation (the invtid instruction).
func (c *Context) InvalidateVTID(v VTID) { delete(c.tdtCache, v) }

// CachedEntry returns the cached translation for v without reading memory
// or caching anything — used by invtid, which must not re-translate.
func (c *Context) CachedEntry(v VTID) (Entry, bool) {
	e, ok := c.tdtCache[v]
	return e, ok
}

// Fault is a typed error carrying the exception cause an operation raises.
type Fault struct {
	Cause ExcCause
	Info  int64
	Msg   string
}

func (f *Fault) Error() string { return fmt.Sprintf("hwthread: %s fault: %s", f.Cause, f.Msg) }

// Manager owns every context on one core and implements the architectural
// operations (translate, start, stop, remote register access) with the
// paper's permission semantics. Timing is charged by the core model, not
// here; the Manager is purely functional.
type Manager struct {
	mem      *mem.Memory
	contexts []Context
}

// NewManager creates n disabled contexts backed by physical memory m, in
// one slab.
func NewManager(m *mem.Memory, n int) *Manager {
	mgr := &Manager{mem: m, contexts: make([]Context, n)}
	for i := range mgr.contexts {
		mgr.contexts[i].PTID = PTID(i)
	}
	return mgr
}

// Len returns the number of hardware threads.
func (m *Manager) Len() int { return len(m.contexts) }

// Context returns the context for ptid, or nil if out of range.
func (m *Manager) Context(p PTID) *Context {
	if p < 0 || int(p) >= len(m.contexts) {
		return nil
	}
	return &m.contexts[p]
}

// Contexts returns the backing slab (shared, not a copy).
func (m *Manager) Contexts() []Context { return m.contexts }

// Translate resolves vtid through caller's TDT, consulting the hardware
// translation cache first. A caller with TDT base 0 has no table and every
// translation faults.
func (m *Manager) Translate(caller *Context, vtid VTID) (Entry, *Fault) {
	if e, ok := caller.tdtCache[vtid]; ok {
		if !e.Valid() {
			return Entry{}, &Fault{Cause: ExcTDTFault, Info: int64(vtid), Msg: fmt.Sprintf("invalid vtid %#x (cached)", int64(vtid))}
		}
		// Rows with out-of-range ptids are cached like any other (hardware
		// caches whatever software wrote) but must fault on every use, not
		// only the first: without this check a handler restarting the faulter
		// would re-run the translation against the cached row and index the
		// context table out of range.
		if int(e.PTID) < 0 || int(e.PTID) >= len(m.contexts) {
			return Entry{}, &Fault{Cause: ExcTDTFault, Info: int64(vtid), Msg: fmt.Sprintf("vtid %#x maps to out-of-range ptid %d (cached)", int64(vtid), e.PTID)}
		}
		return e, nil
	}
	base := caller.Regs.TDT
	if base == 0 {
		return Entry{}, &Fault{Cause: ExcTDTFault, Info: int64(vtid), Msg: "no TDT configured"}
	}
	if vtid < 0 {
		return Entry{}, &Fault{Cause: ExcTDTFault, Info: int64(vtid), Msg: "negative vtid"}
	}
	e := ReadTDTEntry(m.mem, base, vtid)
	// Hardware caches even invalid rows: that is what makes invtid
	// architecturally required after a table update.
	if caller.tdtCache == nil {
		caller.tdtCache = make(map[VTID]Entry)
	}
	caller.tdtCache[vtid] = e
	if !e.Valid() {
		return Entry{}, &Fault{Cause: ExcTDTFault, Info: int64(vtid), Msg: fmt.Sprintf("invalid vtid %#x", int64(vtid))}
	}
	if int(e.PTID) < 0 || int(e.PTID) >= len(m.contexts) {
		return Entry{}, &Fault{Cause: ExcTDTFault, Info: int64(vtid), Msg: fmt.Sprintf("vtid %#x maps to out-of-range ptid %d", int64(vtid), e.PTID)}
	}
	return e, nil
}

// authorize checks that caller may perform the operation implied by need on
// the entry. Supervisor mode bypasses TDT permission bits (§3.2: the table
// constrains *user* ptids; a supervisor ptid can manage any thread).
func authorize(caller *Context, e Entry, need Perm) *Fault {
	if caller.Supervisor() {
		return nil
	}
	if !e.Perm.Has(need) {
		return &Fault{
			Cause: ExcTDTFault,
			Info:  int64(need),
			Msg:   fmt.Sprintf("permission %v does not include %v", e.Perm, need),
		}
	}
	return nil
}

// Start enables the ptid mapped to vtid. Starting a runnable or waiting
// thread is a no-op (idempotent, like waking an awake thread). It returns
// the started context so the core can charge the tier-dependent start cost.
func (m *Manager) Start(caller *Context, vtid VTID) (*Context, *Fault) {
	e, f := m.Translate(caller, vtid)
	if f != nil {
		return nil, f
	}
	if f := authorize(caller, e, PermStart); f != nil {
		return nil, f
	}
	t := &m.contexts[e.PTID]
	if t.State == Disabled {
		t.State = Runnable
		t.Starts++
	}
	return t, nil
}

// Stop disables the ptid mapped to vtid. Stopping a waiting thread is legal
// (the caller must also cancel its monitor watch; the core does that).
func (m *Manager) Stop(caller *Context, vtid VTID) (*Context, *Fault) {
	e, f := m.Translate(caller, vtid)
	if f != nil {
		return nil, f
	}
	if f := authorize(caller, e, PermStop); f != nil {
		return nil, f
	}
	t := &m.contexts[e.PTID]
	if t.State != Disabled {
		t.State = Disabled
		t.Stops++
	}
	return t, nil
}

// permForReg returns the permission needed to access register r remotely.
// TDT is special-cased by the callers: it always requires supervisor mode.
func permForReg(r isa.Reg) Perm {
	if r.IsControl() {
		return PermModifyMost
	}
	return PermModifySome
}

// Rpull reads register r of the (disabled) ptid mapped to vtid.
// §3.1: rpull/rpush operate on disabled ptids — reading a running thread's
// registers would race the pipeline, so it faults.
func (m *Manager) Rpull(caller *Context, vtid VTID, r isa.Reg) (int64, *Fault) {
	t, f := m.remoteTarget(caller, vtid, r)
	if f != nil {
		return 0, f
	}
	return t.Regs.Get(r), nil
}

// Rpush writes register r of the (disabled) ptid mapped to vtid.
func (m *Manager) Rpush(caller *Context, vtid VTID, r isa.Reg, val int64) *Fault {
	t, f := m.remoteTarget(caller, vtid, r)
	if f != nil {
		return f
	}
	t.Regs.Set(r, val)
	return nil
}

func (m *Manager) remoteTarget(caller *Context, vtid VTID, r isa.Reg) (*Context, *Fault) {
	if !r.Valid() {
		return nil, &Fault{Cause: ExcInvalidOpcode, Info: int64(r), Msg: "invalid remote register"}
	}
	e, f := m.Translate(caller, vtid)
	if f != nil {
		return nil, f
	}
	if r == isa.TDT && !caller.Supervisor() {
		// §3.2: "A ptid must be in supervisor mode to set this register in
		// its own context or any other vtid."
		return nil, &Fault{Cause: ExcPrivilege, Info: int64(r), Msg: "TDT register requires supervisor mode"}
	}
	if f := authorize(caller, e, permForReg(r)); f != nil {
		return nil, f
	}
	t := &m.contexts[e.PTID]
	if t.State != Disabled {
		return nil, &Fault{Cause: ExcTDTFault, Info: int64(vtid), Msg: fmt.Sprintf("remote register access to %v ptid %d", t.State, t.PTID)}
	}
	return t, nil
}

// RaiseException implements the §3.1 fault path: write an exception
// descriptor at the thread's EDP and disable it. If the thread has no EDP,
// the returned fault carries ExcNoHandler — the §3.2 "triple-fault" analog,
// which the machine layer treats as fatal.
func (m *Manager) RaiseException(t *Context, cause ExcCause, info int64) *Fault {
	if t.Regs.EDP == 0 {
		t.State = Disabled
		return &Fault{Cause: ExcNoHandler, Info: int64(cause), Msg: fmt.Sprintf("ptid %d raised %v with no exception handler", t.PTID, cause)}
	}
	t.State = Disabled
	WriteDescriptor(m.mem, t.Regs.EDP, Descriptor{
		Cause: cause,
		PC:    t.Regs.PC,
		Info:  info,
		PTID:  t.PTID,
	})
	return nil
}
