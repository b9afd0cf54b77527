// Package refmodel is a deliberately simple, unoptimized reference
// interpreter for the nocs ISA and threading model, used as the executable
// specification in differential tests against the optimized event-driven
// engine (internal/core + internal/pipeline + internal/sim).
//
// Everything semantic is re-encoded here from the paper/DESIGN.md spec rather
// than imported from the engine packages: the TDT and exception-descriptor
// memory layouts, the Table 1 permission nibble, the exception cause codes,
// the per-opcode latency table, the privileged-instruction set, and the
// processor-sharing timing model. Only plain data types (isa.Instr,
// isa.RegFile, isa.Program) are shared, so that a bug in either encoding
// shows up as a divergence instead of being masked by common code.
//
// The engine executes instructions as events on a (time, seq) heap where seq
// is assigned at each schedule call and ties run FIFO. With no devices, IRQs,
// or natives — the subset the generator in internal/progen emits — the only
// events are per-thread "execute next instruction" events plus externally
// scheduled DMA writes, so the interpreter reproduces the exact total order
// with a straight-line loop: each thread carries (readyAt, seq), seq is
// assigned from a global counter at the same chronological points the engine
// calls schedule(), and each step runs the minimum (readyAt, seq).
//
// Timing is replicated under two deliberate restrictions the generator
// guarantees:
//
//   - thread-state always fits in the register-file tier (few threads), so
//     every start costs the constant pipeline-refill latency;
//   - load/store addresses stay confined to a footprint that can never evict
//     an L1 line (≤ associativity distinct lines per set), so a data access
//     costs the cold full-miss latency on a line's first touch and the L1 hit
//     latency ever after. The interpreter models this as a seen-lines set.
package refmodel

import (
	"fmt"

	"nocs/internal/isa"
)

// Thread states, encoded independently of internal/hwthread.
const (
	StDisabled uint8 = 0
	StRunnable uint8 = 1
	StWaiting  uint8 = 2
)

// Table 1 permission bits: start, stop, modify-some, modify-most.
const (
	permStart      = 1 << 3
	permStop       = 1 << 2
	permModifySome = 1 << 1
	permModifyMost = 1 << 0
)

// Exception cause codes (§3.1/§3.2), matching the architectural values the
// hardware writes into descriptors.
const (
	CauseNone      int64 = 0
	CauseDivZero   int64 = 1
	CauseInvalidOp int64 = 2
	CausePrivilege int64 = 3
	CauseTDTFault  int64 = 4
	CauseSyscall   int64 = 5
	CauseVMExit    int64 = 6
	CauseNoHandler int64 = 7
)

// TDT row layout: 16 bytes per vtid at base+16*vtid; +0 ptid, +8 perm nibble.
const (
	tdtEntryBytes = 16
	tdtPTIDOff    = 0
	tdtPermOff    = 8
)

// Exception descriptor layout at EDP: 32 bytes; the cause word doubles as the
// doorbell and is written last.
const (
	descCause = 0
	descPC    = 8
	descInfo  = 16
	descPTID  = 24
)

// Config carries the timing parameters of the engine under test. The
// differential harness fills it from the engine's effective configuration so
// both sides agree on constants while disagreeing on implementation.
type Config struct {
	Threads int
	Slots   int

	// Cost table (core.CostConfig subset reachable by generated programs).
	ThreadOp    int64
	SyscallExit int64
	IRQExit     int64
	VMEntry     int64
	MSRAccess   int64

	// StartLatency is the constant cost of scheduling a thread whose state is
	// in the register file (the statestore pipeline depth).
	StartLatency int64

	// Data-access timing: first touch of a line costs ColdAccess (the serial
	// L1+L2+L3+DRAM lookup), later touches WarmAccess (the L1 hit).
	LineBytes  int64
	ColdAccess int64
	WarmAccess int64

	// DropPendingWakeups is the documented mutation knob (DESIGN.md §9): when
	// set, a watched write that arrives while the watcher is armed but not yet
	// waiting is dropped instead of buffered, losing the monitor/mwait race
	// guarantee. The differential sweep must catch this as a divergence.
	DropPendingWakeups bool

	// SwallowInjectedWakes is the fault-path mutation knob (DESIGN.md §10):
	// when set, scheduled spurious-wake fault events are silently skipped, as
	// if the model forgot to implement the fault semantics. The faulted
	// differential sweep must catch this as a divergence on any seed whose
	// fault schedule actually lands on a blocked thread.
	SwallowInjectedWakes bool

	// LIFOHandoff is the handoff-ordering mutation knob (DESIGN.md §14):
	// when set, a write that wakes several watchers delivers the wakes in
	// reverse arm order — LIFO where the architecture guarantees FIFO. The
	// wake order fixes the woken threads' event sequence numbers and with
	// them every later lock-acquisition tie-break, so the lock-ordering
	// differential sweep must catch this on any seed where two or more
	// waiters park on one word.
	LIFOHandoff bool
}

// DMAWrite is an externally scheduled device write (time, address, value).
// The harness schedules these on the engine before boot, in slice order, so
// their tie-break sequence numbers precede every exec event's.
type DMAWrite struct {
	At   int64
	Addr int64
	Val  int64
}

// FaultWake is an externally scheduled spurious monitor wakeup: at time At,
// ptid PTID — if blocked in mwait with watches armed — is woken as if a
// watched address had been written, consuming its watch set. The harness
// schedules the identical list on the engine (core.InjectSpuriousWake), so
// both sides apply byte-identical fault schedules.
type FaultWake struct {
	At   int64
	PTID int
}

// Thread is the architectural and scheduling state of one ptid.
type Thread struct {
	PTID  int
	State uint8
	Regs  isa.RegFile
	Prog  *isa.Program
	// Priority is the pipeline weight (0 = default 1).
	Priority int

	// Event-loop state: one in-flight exec "event" per thread.
	scheduled bool
	readyAt   int64
	seq       uint64

	inPipe bool
	halted bool // parked by legacy HLT (never woken: no IRQs here)

	// Monitor state. armTick records the global write-tick at which each
	// watch was armed, so the lost-wakeup invariant can order arms against
	// writes exactly even within one cycle.
	armed   map[int64]bool
	armTick map[int64]uint64
	pending bool
	// shadowPending tracks what pending WOULD be without the
	// DropPendingWakeups mutation, so the first architecturally visible
	// effect of the mutation (an mwait that blocks instead of completing
	// immediately) can be pinned to an exact cycle.
	shadowPending bool

	// TDT translation cache: rows are cached even when invalid.
	tdtCache map[int64]tdtEntry
	tdtValid map[int64]bool // row present in cache

	// Statistics mirrored from the engine's context.
	Starts      uint64
	Stops       uint64
	Wakeups     uint64
	Retired     uint64
	LastStarted int64
	LastHalt    int64
}

type tdtEntry struct {
	ptid int64
	perm int64
}

// Fatal records the triple-fault-analog outcome: an exception raised by a
// thread with no handler installed.
type Fatal struct {
	PTID int
	Info int64 // the original cause that had no handler
}

// Interp is the reference interpreter for one single-core machine.
type Interp struct {
	cfg     Config
	threads []*Thread

	mem  map[int64]int64
	seen map[int64]bool // warm cache lines (line index = floor(addr / LineBytes))

	// byAddr lists watcher ptids per address in global arm order, the order
	// wake delivery must follow.
	byAddr map[int64][]int

	now     int64
	nextSeq uint64

	dma     []DMAWrite
	dmaSeq  []uint64
	dmaDone []bool

	faults    []FaultWake
	faultSeq  []uint64
	faultDone []bool
	// SpuriousWakes counts fault events that actually woke a thread.
	SpuriousWakes uint64

	totalWeight int
	pipeCount   int

	fatal *Fatal

	// FirstMutationEffect is the first cycle at which an enabled mutation knob
	// visibly changed this run's behavior (-1 while it never did). For
	// DropPendingWakeups that is the first mwait which would have consumed a
	// buffered wakeup but blocks instead; for SwallowInjectedWakes, the first
	// swallowed fault event that would have woken a waiting thread. The
	// bisection harness uses this as ground truth for its reported
	// first-divergent-cycle.
	FirstMutationEffect int64

	// Machine-level counters mirrored from the engine.
	Resumes      uint64 // core "starts": boot + start + wake scheduling
	RetiredTotal uint64
	MonWakeups   uint64
	MonImmediate uint64

	// writeTick counts every memory write; lastWriteTick records the tick of
	// the most recent write per address (no-lost-wakeups invariant).
	writeTick     uint64
	lastWriteTick map[int64]uint64
}

// New builds an interpreter. All threads start disabled with zero registers.
func New(cfg Config) *Interp {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 2
	}
	if cfg.LineBytes <= 0 {
		cfg.LineBytes = 64
	}
	it := &Interp{
		cfg:                 cfg,
		mem:                 make(map[int64]int64),
		seen:                make(map[int64]bool),
		byAddr:              make(map[int64][]int),
		lastWriteTick:       make(map[int64]uint64),
		FirstMutationEffect: -1,
	}
	for i := 0; i < cfg.Threads; i++ {
		it.threads = append(it.threads, &Thread{
			PTID:     i,
			armed:    make(map[int64]bool),
			armTick:  make(map[int64]uint64),
			tdtCache: make(map[int64]tdtEntry),
			tdtValid: make(map[int64]bool),
		})
	}
	return it
}

// Thread returns the context for ptid (nil out of range).
func (it *Interp) Thread(p int) *Thread {
	if p < 0 || p >= len(it.threads) {
		return nil
	}
	return it.threads[p]
}

// Fatal returns the no-handler outcome, nil while healthy.
func (it *Interp) Fatal() *Fatal { return it.fatal }

// Mem reads a word of simulated memory.
func (it *Interp) Mem(addr int64) int64 { return it.mem[addr] }

// Poke initializes memory before boot (no observers exist yet, but the write
// path is shared so pre-boot writes behave like the harness's engine-side
// Memory.Write calls).
func (it *Interp) Poke(addr, val int64) { it.write(addr, val) }

// ScheduleDMA registers device writes. Must be called before Boot so the
// sequence numbers precede every exec event, matching a harness that
// schedules DMA events on the engine before BootStart.
func (it *Interp) ScheduleDMA(writes []DMAWrite) {
	for _, w := range writes {
		it.dma = append(it.dma, w)
		it.dmaSeq = append(it.dmaSeq, it.nextSeq)
		it.dmaDone = append(it.dmaDone, false)
		it.nextSeq++
	}
}

// ScheduleFaults registers spurious-wake fault events. Must be called after
// ScheduleDMA and before Boot, matching a harness that schedules the fault
// events on the engine between the DMA events and BootStart — the sequence
// numbers fix same-cycle ordering exactly.
func (it *Interp) ScheduleFaults(faults []FaultWake) {
	for _, f := range faults {
		it.faults = append(it.faults, f)
		it.faultSeq = append(it.faultSeq, it.nextSeq)
		it.faultDone = append(it.faultDone, false)
		it.nextSeq++
	}
}

// Boot enables a disabled ptid and schedules its first instruction after the
// start latency (the firmware path, no TDT check).
func (it *Interp) Boot(p int) error {
	t := it.Thread(p)
	if t == nil {
		return fmt.Errorf("refmodel: no ptid %d", p)
	}
	if t.Prog == nil {
		return fmt.Errorf("refmodel: ptid %d has no program", p)
	}
	if t.State != StDisabled {
		return nil
	}
	t.State = StRunnable
	t.Starts++
	it.resume(t)
	return nil
}

// Run executes events with timestamps <= deadline, exactly like the engine's
// RunUntil: later events stay pending and the clock ends at the deadline.
func (it *Interp) Run(deadline int64) {
	for {
		kind, idx, at := it.next()
		if kind == 0 || at > deadline {
			break
		}
		it.now = at
		if kind == 1 {
			it.dmaDone[idx] = true
			it.write(it.dma[idx].Addr, it.dma[idx].Val)
			continue
		}
		if kind == 3 {
			it.faultDone[idx] = true
			if !it.cfg.SwallowInjectedWakes {
				it.spuriousWake(it.faults[idx].PTID)
			} else if t := it.Thread(it.faults[idx].PTID); t != nil &&
				t.State == StWaiting && !t.halted && it.FirstMutationEffect < 0 {
				// The unmutated model would wake this thread now; swallowing
				// the event is the mutation's first visible effect.
				it.FirstMutationEffect = it.now
			}
			continue
		}
		it.step(it.threads[idx])
	}
	if it.now < deadline {
		it.now = deadline
	}
}

// next picks the minimum (at, seq) pending event: kind 0 = none,
// 1 = DMA write idx, 2 = thread idx exec, 3 = fault event idx.
func (it *Interp) next() (kind, idx int, at int64) {
	var bestSeq uint64
	for i := range it.dma {
		if it.dmaDone[i] {
			continue
		}
		if kind == 0 || it.dma[i].At < at || (it.dma[i].At == at && it.dmaSeq[i] < bestSeq) {
			kind, idx, at, bestSeq = 1, i, it.dma[i].At, it.dmaSeq[i]
		}
	}
	for i := range it.faults {
		if it.faultDone[i] {
			continue
		}
		if kind == 0 || it.faults[i].At < at || (it.faults[i].At == at && it.faultSeq[i] < bestSeq) {
			kind, idx, at, bestSeq = 3, i, it.faults[i].At, it.faultSeq[i]
		}
	}
	for i, t := range it.threads {
		if !t.scheduled {
			continue
		}
		if kind == 0 || t.readyAt < at || (t.readyAt == at && t.seq < bestSeq) {
			kind, idx, at, bestSeq = 2, i, t.readyAt, t.seq
		}
	}
	return kind, idx, at
}

// schedule arms t's single exec event delay cycles from now.
func (it *Interp) schedule(t *Thread, delay int64) {
	t.scheduled = true
	t.readyAt = it.now + delay
	t.seq = it.nextSeq
	it.nextSeq++
}

// resume puts a newly runnable thread on the pipeline and schedules its first
// instruction after the constant start latency.
func (it *Interp) resume(t *Thread) {
	it.Resumes++
	t.LastStarted = it.now
	it.pipeAdd(t)
	it.schedule(t, it.cfg.StartLatency)
}

// suspend removes a thread from the pipeline and cancels its exec event.
func (it *Interp) suspend(t *Thread) {
	it.pipeRemove(t)
	t.scheduled = false
}

func (t *Thread) weight() int {
	if t.Priority < 1 {
		return 1
	}
	return t.Priority
}

func (it *Interp) pipeAdd(t *Thread) {
	if t.inPipe {
		return
	}
	t.inPipe = true
	it.pipeCount++
	it.totalWeight += t.weight()
}

func (it *Interp) pipeRemove(t *Thread) {
	if !t.inPipe {
		return
	}
	t.inPipe = false
	it.pipeCount--
	it.totalWeight -= t.weight()
}

// charged scales a base latency by the processor-sharing slowdown, using the
// same float arithmetic as the optimized pipeline so roundings agree.
func (it *Interp) charged(t *Thread, base int64) int64 {
	if !t.inPipe {
		return base
	}
	share := float64(it.cfg.Slots) * float64(t.weight()) / float64(it.totalWeight)
	sd := 1.0
	if share < 1 {
		sd = 1 / share
	}
	c := int64(float64(base)*sd + 0.999999)
	if c < base {
		c = base
	}
	return c
}

// access charges the data cache for one load/store: cold full-miss on a
// line's first touch, L1 hit after.
func (it *Interp) access(addr int64) int64 {
	line := addr / it.cfg.LineBytes
	if addr%it.cfg.LineBytes < 0 {
		line-- // floor, as mem.Cache maps lines
	}
	if it.seen[line] {
		return it.cfg.WarmAccess
	}
	it.seen[line] = true
	return it.cfg.ColdAccess
}

// write stores a word and delivers monitor wakeups, in global arm order.
func (it *Interp) write(addr, val int64) {
	it.mem[addr] = val
	it.writeTick++
	it.lastWriteTick[addr] = it.writeTick

	list := it.byAddr[addr]
	if len(list) == 0 {
		return
	}
	// Collect first: wake handlers mutate the watch structures.
	var toWake []int
	for _, p := range list {
		t := it.threads[p]
		if t.State == StWaiting && !t.halted {
			toWake = append(toWake, p)
		} else if !it.cfg.DropPendingWakeups {
			t.pending = true
		} else {
			t.shadowPending = true
		}
	}
	if it.cfg.LIFOHandoff && len(toWake) > 1 {
		// The mutation's first visible effect is the first multi-waiter wake
		// whose delivery order this reversal actually changes.
		if it.FirstMutationEffect < 0 {
			it.FirstMutationEffect = it.now
		}
		for i, j := 0, len(toWake)-1; i < j; i, j = i+1, j-1 {
			toWake[i], toWake[j] = toWake[j], toWake[i]
		}
	}
	for _, p := range toWake {
		t := it.threads[p]
		if t.State != StWaiting || t.halted {
			continue
		}
		it.disarm(t)
		it.MonWakeups++
		t.State = StRunnable
		t.Wakeups++
		it.resume(t)
	}
}

// spuriousWake applies one scheduled fault event: a false monitor wakeup.
// The wake only lands if the target is actually blocked in mwait with watches
// armed — exactly the engine's InjectWake condition — and consumes the watch
// set like a real wake would, but bumps no write tick (no write happened).
func (it *Interp) spuriousWake(p int) {
	if p < 0 || p >= len(it.threads) {
		return
	}
	t := it.threads[p]
	if t.State != StWaiting || t.halted || len(t.armed) == 0 {
		return
	}
	it.disarm(t)
	it.MonWakeups++
	it.SpuriousWakes++
	t.State = StRunnable
	t.Wakeups++
	it.resume(t)
}

// arm adds addr to t's watch set (idempotent), appending t to the global
// per-address arm-order list.
func (it *Interp) arm(t *Thread, addr int64) {
	if t.armed[addr] {
		return
	}
	t.armed[addr] = true
	t.armTick[addr] = it.writeTick
	it.byAddr[addr] = append(it.byAddr[addr], t.PTID)
}

// disarm consumes t's whole watch set and pending flag.
func (it *Interp) disarm(t *Thread) {
	for a := range t.armed {
		list := it.byAddr[a]
		for i, p := range list {
			if p == t.PTID {
				it.byAddr[a] = append(list[:i], list[i+1:]...)
				break
			}
		}
		if len(it.byAddr[a]) == 0 {
			delete(it.byAddr, a)
		}
	}
	t.armed = make(map[int64]bool)
	t.armTick = make(map[int64]uint64)
	t.pending = false
	t.shadowPending = false
}

// privileged is the independently encoded §3.2 supervisor-only set.
func privileged(op isa.Op) bool {
	switch op {
	case isa.WRMSR, isa.RDMSR, isa.HLT, isa.IRET, isa.VMRESUME, isa.SYSRET:
		return true
	}
	return false
}

// latency is the independently encoded per-opcode base latency table.
func latency(op isa.Op) int64 {
	switch op {
	case isa.MUL:
		return 3
	case isa.DIV:
		return 12
	case isa.FADD, isa.FMOV, isa.FMOVI:
		return 3
	case isa.FMUL:
		return 4
	default:
		return 1
	}
}

// translate resolves vtid through t's TDT with the §3.1 caching rule: rows
// are cached even when invalid, and every use re-checks validity and range.
// Returns the entry or a fault (cause, info).
func (it *Interp) translate(t *Thread, vtid int64) (tdtEntry, bool, int64, int64) {
	if t.tdtValid[vtid] {
		e := t.tdtCache[vtid]
		if e.perm == 0 {
			return tdtEntry{}, false, CauseTDTFault, vtid
		}
		if e.ptid < 0 || e.ptid >= int64(len(it.threads)) {
			return tdtEntry{}, false, CauseTDTFault, vtid
		}
		return e, true, 0, 0
	}
	base := t.Regs.TDT
	if base == 0 {
		return tdtEntry{}, false, CauseTDTFault, vtid
	}
	if vtid < 0 {
		return tdtEntry{}, false, CauseTDTFault, vtid
	}
	e := tdtEntry{
		ptid: it.mem[base+vtid*tdtEntryBytes+tdtPTIDOff],
		// The permission nibble is stored through a hardware register 8 bits
		// wide: reads truncate to the low byte.
		perm: int64(uint8(it.mem[base+vtid*tdtEntryBytes+tdtPermOff])),
	}
	t.tdtCache[vtid] = e
	t.tdtValid[vtid] = true
	if e.perm == 0 {
		return tdtEntry{}, false, CauseTDTFault, vtid
	}
	if e.ptid < 0 || e.ptid >= int64(len(it.threads)) {
		return tdtEntry{}, false, CauseTDTFault, vtid
	}
	return e, true, 0, 0
}

// authorize applies Table 1: supervisor mode bypasses the permission bits.
func authorize(t *Thread, e tdtEntry, need int64) bool {
	if t.Regs.Mode != 0 {
		return true
	}
	return e.perm&need == need
}

// raise runs the §3.1 exception path: suspend, then either the no-handler
// fatal or a descriptor write (doorbell last, each store waking watchers).
func (it *Interp) raise(t *Thread, cause, info int64) {
	it.suspend(t)
	if t.Regs.EDP == 0 {
		t.State = StDisabled
		if it.fatal == nil {
			it.fatal = &Fatal{PTID: t.PTID, Info: cause}
		}
		return
	}
	t.State = StDisabled
	edp := t.Regs.EDP
	it.write(edp+descPC, t.Regs.PC)
	it.write(edp+descInfo, info)
	it.write(edp+descPTID, int64(t.PTID))
	it.write(edp+descCause, cause)
}

// step executes one instruction for t, mirroring the engine's execOne but as
// straight-line code. On entry t's exec event has fired: it is consumed.
func (it *Interp) step(t *Thread) {
	t.scheduled = false
	if it.fatal != nil || t.State != StRunnable {
		return
	}
	if t.Prog == nil {
		it.raise(t, CauseInvalidOp, t.Regs.PC)
		return
	}
	in, ok := t.Prog.At(t.Regs.PC)
	if !ok {
		it.raise(t, CauseInvalidOp, t.Regs.PC)
		return
	}

	r := &t.Regs
	base := latency(in.Op)
	var extra int64
	nextPC := r.PC + 1

	retire := func() {
		it.RetiredTotal++
		t.Retired++
	}
	finish := func(cost int64) {
		retire()
		r.PC = nextPC
		it.schedule(t, it.charged(t, cost))
	}

	// Privileged instructions never execute their semantics in user mode.
	if privileged(in.Op) && r.Mode == 0 {
		retire()
		r.PC = nextPC
		it.raise(t, CausePrivilege, int64(in.Op))
		return
	}

	switch in.Op {
	case isa.NOP:

	case isa.ADD:
		r.Set(in.Rd, r.Get(in.Rs1)+r.Get(in.Rs2))
	case isa.SUB:
		r.Set(in.Rd, r.Get(in.Rs1)-r.Get(in.Rs2))
	case isa.MUL:
		r.Set(in.Rd, r.Get(in.Rs1)*r.Get(in.Rs2))
	case isa.DIV:
		d := r.Get(in.Rs2)
		if d == 0 {
			retire()
			it.raise(t, CauseDivZero, r.PC)
			return
		}
		r.Set(in.Rd, r.Get(in.Rs1)/d)
	case isa.AND:
		r.Set(in.Rd, r.Get(in.Rs1)&r.Get(in.Rs2))
	case isa.OR:
		r.Set(in.Rd, r.Get(in.Rs1)|r.Get(in.Rs2))
	case isa.XOR:
		r.Set(in.Rd, r.Get(in.Rs1)^r.Get(in.Rs2))
	case isa.SHL:
		r.Set(in.Rd, r.Get(in.Rs1)<<(uint64(r.Get(in.Rs2))&63))
	case isa.SHR:
		r.Set(in.Rd, int64(uint64(r.Get(in.Rs1))>>(uint64(r.Get(in.Rs2))&63)))
	case isa.SLT:
		if r.Get(in.Rs1) < r.Get(in.Rs2) {
			r.Set(in.Rd, 1)
		} else {
			r.Set(in.Rd, 0)
		}
	case isa.ADDI:
		r.Set(in.Rd, r.Get(in.Rs1)+in.Imm)
	case isa.MOVI:
		r.Set(in.Rd, in.Imm)
	case isa.MOV:
		r.Set(in.Rd, r.Get(in.Rs1))

	case isa.FADD:
		r.SetF(in.Rd, r.GetF(in.Rs1)+r.GetF(in.Rs2))
	case isa.FMUL:
		r.SetF(in.Rd, r.GetF(in.Rs1)*r.GetF(in.Rs2))
	case isa.FMOVI:
		r.SetF(in.Rd, float64(in.Imm))
	case isa.FMOV:
		r.SetF(in.Rd, r.GetF(in.Rs1))

	case isa.LD:
		addr := r.Get(in.Rs1) + in.Imm
		extra += it.access(addr)
		r.Set(in.Rd, it.mem[addr])
	case isa.ST:
		addr := r.Get(in.Rs1) + in.Imm
		extra += it.access(addr)
		it.write(addr, r.Get(in.Rs2))

	case isa.XCHG:
		addr := r.Get(in.Rs1) + in.Imm
		extra += it.access(addr)
		old := it.mem[addr]
		it.write(addr, r.Get(in.Rd))
		r.Set(in.Rd, old)
	case isa.FAA:
		addr := r.Get(in.Rs1) + in.Imm
		extra += it.access(addr)
		old := it.mem[addr]
		it.write(addr, old+r.Get(in.Rs2))
		r.Set(in.Rd, old)
	case isa.CAS:
		addr := r.Get(in.Rs1) + in.Imm
		extra += it.access(addr)
		old := it.mem[addr]
		if old == r.Get(in.Rd) {
			it.write(addr, r.Get(in.Rs2))
		}
		r.Set(in.Rd, old)

	case isa.JMP:
		nextPC = in.Imm
	case isa.JAL:
		r.Set(in.Rd, r.PC+1)
		nextPC = in.Imm
	case isa.JR:
		nextPC = r.Get(in.Rs1)
	case isa.BEQ:
		if r.Get(in.Rs1) == r.Get(in.Rs2) {
			nextPC = in.Imm
		}
	case isa.BNE:
		if r.Get(in.Rs1) != r.Get(in.Rs2) {
			nextPC = in.Imm
		}
	case isa.BLT:
		if r.Get(in.Rs1) < r.Get(in.Rs2) {
			nextPC = in.Imm
		}
	case isa.BGE:
		if r.Get(in.Rs1) >= r.Get(in.Rs2) {
			nextPC = in.Imm
		}

	case isa.HALT:
		// Disable without clearing monitor state; PC stays at the halt.
		retire()
		t.State = StDisabled
		t.Stops++
		t.LastHalt = it.now
		it.suspend(t)
		return

	case isa.MONITOR:
		extra += it.cfg.ThreadOp
		it.arm(t, r.Get(in.Rs1))

	case isa.MWAIT:
		retire()
		r.PC = nextPC
		if len(t.armed) == 0 {
			// mwait without a monitor does not block.
			it.schedule(t, it.charged(t, base+it.cfg.ThreadOp))
			return
		}
		if t.pending {
			// The race rule: a write between monitor and mwait completes the
			// wait immediately. The wake is delivered synchronously to an
			// already-runnable thread.
			it.disarm(t)
			it.MonImmediate++
			it.MonWakeups++
			t.Wakeups++
			it.schedule(t, it.charged(t, base+it.cfg.ThreadOp))
			return
		}
		if t.shadowPending {
			// Without the DropPendingWakeups mutation this mwait would have
			// completed immediately off the buffered wake; blocking here is the
			// mutation's first visible divergence from the engine.
			if it.FirstMutationEffect < 0 {
				it.FirstMutationEffect = it.now
			}
			t.shadowPending = false
		}
		t.State = StWaiting
		it.suspend(t)
		return

	case isa.START:
		extra += it.cfg.ThreadOp
		e, ok, cause, info := it.translate(t, r.Get(in.Rs1))
		if ok && !authorize(t, e, permStart) {
			ok, cause, info = false, CauseTDTFault, permStart
		}
		if !ok {
			retire()
			it.raise(t, cause, info)
			return
		}
		tgt := it.threads[e.ptid]
		if tgt.State == StDisabled {
			tgt.State = StRunnable
			tgt.Starts++
		}
		// A freshly enabled thread is scheduled before the caller's next
		// instruction latency is computed, so its membership raises the
		// caller's slowdown and its exec event wins timestamp ties.
		if tgt.State == StRunnable && !tgt.inPipe {
			it.resume(tgt)
		}

	case isa.STOP:
		extra += it.cfg.ThreadOp
		e, ok, cause, info := it.translate(t, r.Get(in.Rs1))
		if ok && !authorize(t, e, permStop) {
			ok, cause, info = false, CauseTDTFault, permStop
		}
		if !ok {
			retire()
			it.raise(t, cause, info)
			return
		}
		tgt := it.threads[e.ptid]
		if tgt.State != StDisabled {
			tgt.State = StDisabled
			tgt.Stops++
		}
		// Stop cancels any monitor wait/watches, even armed-only ones.
		it.disarm(tgt)
		tgt.halted = false
		it.suspend(tgt)
		if tgt == t {
			retire()
			r.PC = nextPC
			return
		}

	case isa.RPULL:
		extra += it.cfg.ThreadOp
		tgt, ok, cause, info := it.remoteTarget(t, r.Get(in.Rs1), isa.Reg(in.Imm))
		if !ok {
			retire()
			it.raise(t, cause, info)
			return
		}
		r.Set(in.Rd, tgt.Regs.Get(isa.Reg(in.Imm)))

	case isa.RPUSH:
		extra += it.cfg.ThreadOp
		tgt, ok, cause, info := it.remoteTarget(t, r.Get(in.Rs1), isa.Reg(in.Imm))
		if !ok {
			retire()
			it.raise(t, cause, info)
			return
		}
		tgt.Regs.Set(isa.Reg(in.Imm), r.Get(in.Rs2))

	case isa.INVTID:
		extra += it.cfg.ThreadOp
		remote := r.Get(in.Rs2)
		// invtid never translates (that would re-cache the row being
		// invalidated): it uses only existing cached entries, and always
		// drops the caller's own row too.
		if t.tdtValid[r.Get(in.Rs1)] {
			if e := t.tdtCache[r.Get(in.Rs1)]; e.perm != 0 &&
				e.ptid >= 0 && e.ptid < int64(len(it.threads)) {
				tgt := it.threads[e.ptid]
				delete(tgt.tdtCache, remote)
				delete(tgt.tdtValid, remote)
			}
		}
		delete(t.tdtCache, remote)
		delete(t.tdtValid, remote)

	case isa.SYSCALL:
		// nocs personality: exception-less syscall via descriptor.
		retire()
		r.PC = nextPC
		it.raise(t, CauseSyscall, r.GPR[1])
		return

	case isa.VMCALL:
		retire()
		r.PC = nextPC
		it.raise(t, CauseVMExit, r.GPR[1])
		return

	case isa.SYSRET:
		extra += it.cfg.SyscallExit
		r.Mode = 0
	case isa.IRET:
		extra += it.cfg.IRQExit
		r.Mode = 0
	case isa.VMRESUME:
		extra += it.cfg.VMEntry
	case isa.WRMSR, isa.RDMSR:
		extra += it.cfg.MSRAccess
	case isa.HLT:
		// Legacy idle: with no interrupt controller here, parked forever.
		retire()
		r.PC = nextPC
		t.State = StWaiting
		t.halted = true
		it.suspend(t)
		return

	default:
		retire()
		it.raise(t, CauseInvalidOp, int64(in.Op))
		return
	}

	finish(base + extra)
}

// remoteTarget applies the rpull/rpush fault ladder: register validity,
// translation, the supervisor-only TDT register rule, Table 1 authorization,
// and the disabled-target requirement — in that order.
func (it *Interp) remoteTarget(t *Thread, vtid int64, reg isa.Reg) (*Thread, bool, int64, int64) {
	if !reg.Valid() {
		return nil, false, CauseInvalidOp, int64(reg)
	}
	e, ok, cause, info := it.translate(t, vtid)
	if !ok {
		return nil, false, cause, info
	}
	if reg == isa.TDT && t.Regs.Mode == 0 {
		return nil, false, CausePrivilege, int64(reg)
	}
	need := int64(permModifySome)
	if reg.IsControl() {
		need = permModifyMost
	}
	if !authorize(t, e, need) {
		return nil, false, CauseTDTFault, need
	}
	tgt := it.threads[e.ptid]
	if tgt.State != StDisabled {
		return nil, false, CauseTDTFault, vtid
	}
	return tgt, true, 0, 0
}

// CheckInvariants verifies interpreter-side properties that must hold in any
// reachable state; the differential harness calls it after every run.
func (it *Interp) CheckInvariants() error {
	// Runnable-count conservation: pipeline membership == runnable set.
	count, weight := 0, 0
	for _, t := range it.threads {
		if t.State == StRunnable {
			if !t.inPipe {
				return fmt.Errorf("refmodel: runnable ptid %d not on pipeline", t.PTID)
			}
			count++
			weight += t.weight()
		} else if t.inPipe {
			return fmt.Errorf("refmodel: %d-state ptid %d on pipeline", t.State, t.PTID)
		}
	}
	if count != it.pipeCount || weight != it.totalWeight {
		return fmt.Errorf("refmodel: pipeline accounting %d/%d, want %d/%d",
			it.pipeCount, it.totalWeight, count, weight)
	}
	// No lost wakeups: a thread still waiting must not have had any armed
	// address written after the watch was armed. Ordering uses the global
	// write tick, which is exact even for arms and writes in the same cycle.
	for _, t := range it.threads {
		if t.State != StWaiting || t.halted {
			continue
		}
		for a := range t.armed {
			if tick := it.lastWriteTick[a]; tick > t.armTick[a] {
				return fmt.Errorf("refmodel: lost wakeup: ptid %d waits on %#x written at tick %d (armed at tick %d)",
					t.PTID, a, tick, t.armTick[a])
			}
		}
	}
	return nil
}
