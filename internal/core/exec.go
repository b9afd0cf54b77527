package core

import (
	"strconv"

	"nocs/internal/hwthread"
	"nocs/internal/isa"
	"nocs/internal/pipeline"
	"nocs/internal/sim"
)

// decodedFor returns the predecoded instruction cache for t's bound program,
// refreshing the per-ptid cache when the program changed since BindProgram
// (tests and services may rebind t.Prog directly; a pointer compare per
// instruction keeps the cache coherent without an invalidation protocol —
// Programs themselves are immutable, see isa.Decoded).
func (c *Core) decodedFor(t *hwthread.Context) []isa.Decoded {
	if c.decProgs[t.PTID] != t.Prog {
		c.decProgs[t.PTID] = t.Prog
		c.decs[t.PTID] = t.Prog.Decoded()
	}
	return c.decs[t.PTID]
}

// run executes t's batch and then, inline, the batches of the threads that
// follow it in the ready queue, for as long as the queue's head is the event
// the engine would dispatch next; on return the head is armed. A batch runs
// one thread's straight-line instructions in a tight loop until a scheduling
// boundary. Instruction-level boundaries (mwait, halt, faults, descriptor
// syscalls/vm-exits, blocking natives) surface as ok=false from execOne;
// cross-thread boundaries (this core's other queued threads, wakeups, IRQs,
// device DMA/MSIs, injected fault ticks, RunUntil quantum expiry) surface
// through the horizon check — the batch continues only while the next issue
// stays strictly ahead of every queued event, the engine's and the core's,
// so batching can never reorder a wakeup relative to per-event dispatch. A
// tracer only watches: each batch becomes one "batch" span on its thread's
// track (traceBatch), and the batches are the untraced run's.
//
// Determinism argument: in unbatched execution the exec event for the next
// instruction is always the last event scheduled at its timestamp (execOne
// schedules it after all side effects), so any queued event with timestamp
// <= next would run first. advanceWithin(next) fails in exactly that case
// (and at RunUntil deadlines), falling back to a queued issue; otherwise
// executing inline at `next` is observationally identical. The queued issue
// carries the sequence number the engine event would have had, and the
// engine dispatches it inline only when it sorts before the engine's head.
func (c *Core) run(t *hwthread.Context) {
	c.dispatching = true
	if c.tr != nil {
		c.batchAt, c.batchRetired = c.eng.Now(), t.Retired
	}
	// The fast inner loop requires that no per-instruction observer is
	// attached: OnExec (the diff harness, trace buffers) must see every
	// instruction, so those runs take the general interpreter per
	// instruction, still batched.
	fast := c.OnExec == nil
	for t != nil {
		if fast && c.fatal == nil && t.State == hwthread.Runnable && t.Prog != nil {
			// fastRun returns the thread whose instruction at its PC needs
			// the general interpreter, or nil when dispatch is over.
			if t = c.fastRun(t); t == nil {
				break
			}
		}
		delay, ok := c.execOne(t)
		if !ok {
			if c.tr != nil {
				c.traceBatch(t, "block")
			}
			t = c.next()
			continue
		}
		if !c.advanceWithin(c.eng.Now() + delay) {
			if c.tr != nil {
				c.traceYield(t, delay)
			}
			c.scheduleExec(t, delay)
			t = c.next()
			continue
		}
		// Continuing inline: if the instruction re-queued this ptid's issue
		// (a native stop/start round trip), the loop itself is its issue —
		// drop the stale one, as scheduleExec would.
		c.cancelExec(t.PTID)
	}
	c.dispatching = false
	if c.rq.armed == 0 && c.rq.n > 0 {
		c.arm(0)
	}
}

// advanceWithin is sim.Engine.AdvanceWithin with the core's own ready queue
// counted among the queued events: it fails when the queue's head is due at
// or before t, since that issue sorts before an issue scheduled now.
func (c *Core) advanceWithin(t sim.Cycles) bool {
	if c.rq.n > 0 && c.rq.at(0).at <= t {
		return false
	}
	return c.eng.AdvanceWithin(t)
}

// traceYield records t's batch as ended at a scheduling boundary, its next
// issue delay cycles from now: the horizon stops at the first queued event
// (the engine's or the ready queue's) or at the RunUntil deadline, and the
// span names which one. Call it before queueing that issue.
func (c *Core) traceYield(t *hwthread.Context, delay sim.Cycles) {
	cause := "deadline"
	if at, ok := c.nextQueuedAt(); ok && at <= c.eng.Now()+delay {
		cause = "horizon"
	}
	c.traceBatch(t, cause)
}

// traceBatch records the batch that began at c.batchAt as a span on t's
// track up to the last instruction's issue, with the instructions it
// retired and why it ended ("horizon", "deadline" or "block").
func (c *Core) traceBatch(t *hwthread.Context, cause string) {
	now := c.eng.Now()
	arg := "n=" + strconv.FormatUint(t.Retired-c.batchRetired, 10) + " end=" + cause
	c.tr.CompleteArg(c.ptidTrack(t), "batch", arg, int64(c.batchAt), int64(now-c.batchAt))
}

// fastRun executes runs of Fast (integer-register ALU and control-flow)
// instructions with every loop invariant hoisted: the decode cache, the PS
// slowdown (fast ops never change the runnable set), the horizon (fast ops
// never schedule or cancel events), and the clock (advanced locally and
// written back at each boundary — nothing can observe it mid-run since no
// hooks, no events, and no memory traffic occur). When a thread's batch
// yields, its issue is queued and the core's next queued thread, if the
// engine would dispatch it next, continues in the same loop. It returns the
// thread whose instruction at its PC needs the general interpreter, with the
// clock and retire counters synced, or nil when dispatch is over (the last
// batch yielded and the queue's head must wait for the engine).
func (c *Core) fastRun(t *hwthread.Context) *hwthread.Context {
	clk := c.eng.Clock()
	now := clk.Now()
	// The engine's heap stays as it is for as long as the loop goes on:
	// inline dispatch leaves it alone, and queueing an issue that arms an
	// entry ends the loop (next returns nil while one is armed).
	engHorizon := c.eng.BatchHorizon()
	dec, sd := c.decodedFor(t), c.pipe.Slowdown(int(t.PTID))
threads:
	for {
		horizon := engHorizon
		if c.rq.n > 0 {
			if h := c.rq.at(0).at - 1; h < horizon {
				horizon = h
			}
		}
		r := &t.Regs
		pc := r.PC
		var retired uint64
		for {
			if pc < 0 || pc >= int64(len(dec)) {
				break
			}
			in := &dec[pc]
			if !in.Fast || in.Priv {
				break
			}
			nextPC := pc + 1
			handled := true
			switch in.Op {
			case isa.ADDI:
				r.GPR[in.Rd&15] = r.GPR[in.Rs1&15] + in.Imm
			case isa.ADD:
				r.GPR[in.Rd&15] = r.GPR[in.Rs1&15] + r.GPR[in.Rs2&15]
			case isa.SUB:
				r.GPR[in.Rd&15] = r.GPR[in.Rs1&15] - r.GPR[in.Rs2&15]
			case isa.MUL:
				r.GPR[in.Rd&15] = r.GPR[in.Rs1&15] * r.GPR[in.Rs2&15]
			case isa.AND:
				r.GPR[in.Rd&15] = r.GPR[in.Rs1&15] & r.GPR[in.Rs2&15]
			case isa.OR:
				r.GPR[in.Rd&15] = r.GPR[in.Rs1&15] | r.GPR[in.Rs2&15]
			case isa.XOR:
				r.GPR[in.Rd&15] = r.GPR[in.Rs1&15] ^ r.GPR[in.Rs2&15]
			case isa.SHL:
				r.GPR[in.Rd&15] = r.GPR[in.Rs1&15] << (uint64(r.GPR[in.Rs2&15]) & 63)
			case isa.SHR:
				r.GPR[in.Rd&15] = int64(uint64(r.GPR[in.Rs1&15]) >> (uint64(r.GPR[in.Rs2&15]) & 63))
			case isa.SLT:
				if r.GPR[in.Rs1&15] < r.GPR[in.Rs2&15] {
					r.GPR[in.Rd&15] = 1
				} else {
					r.GPR[in.Rd&15] = 0
				}
			case isa.MOVI:
				r.GPR[in.Rd&15] = in.Imm
			case isa.MOV:
				r.GPR[in.Rd&15] = r.GPR[in.Rs1&15]
			case isa.NOP:
			case isa.JMP:
				nextPC = in.Imm
			case isa.JAL:
				r.GPR[in.Rd&15] = pc + 1
				nextPC = in.Imm
			case isa.JR:
				nextPC = r.GPR[in.Rs1&15]
			case isa.BEQ:
				if r.GPR[in.Rs1&15] == r.GPR[in.Rs2&15] {
					nextPC = in.Imm
				}
			case isa.BNE:
				if r.GPR[in.Rs1&15] != r.GPR[in.Rs2&15] {
					nextPC = in.Imm
				}
			case isa.BLT:
				if r.GPR[in.Rs1&15] < r.GPR[in.Rs2&15] {
					nextPC = in.Imm
				}
			case isa.BGE:
				if r.GPR[in.Rs1&15] >= r.GPR[in.Rs2&15] {
					nextPC = in.Imm
				}
			default:
				handled = false
			}
			if !handled {
				break // DIV, memory, FP, thread ops: general interpreter
			}
			retired++
			pc = nextPC
			delay := pipeline.Charge(sim.Cycles(in.Lat), sd)
			next := now + delay
			if next > horizon {
				// Scheduling boundary: a queued event (or the RunUntil deadline)
				// is due at or before the next issue — queue it and move on to
				// the queue's head if the engine would dispatch it next.
				r.PC = pc
				c.retired += retired
				t.Retired += retired
				clk.AdvanceTo(now)
				if c.tr != nil {
					c.traceYield(t, delay)
				}
				if t = c.rotate(t, now+delay); t == nil || t.Prog == nil {
					return t
				}
				dec, sd = c.decodedFor(t), c.pipe.Slowdown(int(t.PTID))
				now = clk.Now()
				continue threads
			}
			now = next
		}
		r.PC = pc
		c.retired += retired
		t.Retired += retired
		clk.AdvanceTo(now)
		return t
	}
}

// execOne executes a single instruction for t. It returns the charged latency
// to the next issue and ok=true while the thread continues in straight-line
// execution; ok=false when the instruction ended the dispatch (blocked,
// halted, faulted, stopped, or fatal) with the thread already suspended or
// rescheduled as appropriate.
func (c *Core) execOne(t *hwthread.Context) (sim.Cycles, bool) {
	if c.fatal != nil || t.State != hwthread.Runnable {
		return 0, false
	}
	if t.Prog == nil {
		c.raise(t, hwthread.ExcInvalidOpcode, t.Regs.PC)
		return 0, false
	}
	dec := c.decodedFor(t)
	pc := t.Regs.PC
	if pc < 0 || pc >= int64(len(dec)) {
		c.raise(t, hwthread.ExcInvalidOpcode, pc)
		return 0, false
	}
	in := &dec[pc]
	if c.OnExec != nil {
		c.OnExec(t.PTID, pc, t.Prog.Code[pc], c.eng.Now())
	}

	r := &t.Regs
	base := sim.Cycles(in.Lat)
	extra := sim.Cycles(0)
	nextPC := pc + 1
	wasFPDirty := r.FPDirty

	// Privileged instructions in user mode never execute their semantics:
	// they either exit to a legacy hypervisor in-thread, or disable the
	// thread with a descriptor (§3.2 instruction emulation path).
	if in.Priv && !t.Supervisor() {
		c.retired++
		t.Retired++
		if c.IsGuest(t.PTID) && c.LegacyVMExit != nil {
			// Legacy virtualization: in-thread VM-exit round trip, then the
			// hypervisor has emulated the instruction; continue at PC+1.
			cost := c.costs.VMExit + c.LegacyVMExit(c, t) + c.costs.VMEntry
			r.PC = nextPC
			lat := c.pipe.ChargedLatency(int(t.PTID), base+cost)
			if c.tr != nil {
				c.tr.Complete(c.ptidTrack(t), "vm-exit", int64(c.eng.Now()), int64(lat))
			}
			return lat, true
		}
		r.PC = nextPC // emulation resumes after the instruction
		if c.IsGuest(t.PTID) {
			c.raise(t, hwthread.ExcVMExit, int64(in.Op))
		} else {
			c.raise(t, hwthread.ExcPrivilege, int64(in.Op))
		}
		return 0, false
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
			c.retired++
			t.Retired++
			c.raise(t, hwthread.ExcDivideByZero, pc)
			return 0, false
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
		extra += c.hier.AccessCycles(addr)
		r.Set(in.Rd, c.mem.Read(addr))
	case isa.ST:
		addr := r.Get(in.Rs1) + in.Imm
		extra += c.hier.AccessCycles(addr)
		c.WriteWord(addr, r.Get(in.Rs2))

	case isa.XCHG:
		addr := r.Get(in.Rs1) + in.Imm
		extra += c.hier.AccessCycles(addr)
		old := c.mem.Read(addr)
		c.WriteWord(addr, r.Get(in.Rd))
		r.Set(in.Rd, old)
	case isa.FAA:
		addr := r.Get(in.Rs1) + in.Imm
		extra += c.hier.AccessCycles(addr)
		old := c.mem.Read(addr)
		c.WriteWord(addr, old+r.Get(in.Rs2))
		r.Set(in.Rd, old)
	case isa.CAS:
		addr := r.Get(in.Rs1) + in.Imm
		extra += c.hier.AccessCycles(addr)
		old := c.mem.Read(addr)
		if old == r.Get(in.Rd) {
			c.WriteWord(addr, r.Get(in.Rs2))
		}
		r.Set(in.Rd, old)

	case isa.JMP:
		nextPC = in.Imm
	case isa.JAL:
		r.Set(in.Rd, pc+1)
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
		c.retired++
		t.Retired++
		t.State = hwthread.Disabled
		t.Stops++
		t.LastHalt = c.eng.Now()
		c.suspend(t)
		if c.tr != nil {
			c.traceInstant(t, "disabled", "halt")
		}
		return 0, false

	case isa.MONITOR:
		extra += c.costs.ThreadOp
		c.mon.Arm(c.waiters[t.PTID], r.Get(in.Rs1))

	case isa.MWAIT:
		c.retired++
		t.Retired++
		r.PC = nextPC // resume point after the wakeup
		if c.mon.Wait(c.waiters[t.PTID]) {
			t.State = hwthread.Waiting
			c.suspend(t)
			if c.tr != nil {
				c.traceStateBegin(t, "waiting", "mwait")
			}
			return 0, false
		}
		// A watched write already landed: fall through, continue executing.
		return c.pipe.ChargedLatency(int(t.PTID), base+c.costs.ThreadOp), true

	case isa.START:
		extra += c.costs.ThreadOp
		target, f := c.threads.Start(t, hwthread.VTID(r.Get(in.Rs1)))
		if f != nil {
			c.retired++
			t.Retired++
			c.raise(t, f.Cause, f.Info)
			return 0, false
		}
		// A freshly-enabled thread is runnable but not yet on the pipeline.
		if target.State == hwthread.Runnable && !c.pipe.Contains(int(target.PTID)) {
			c.resume(target, "start")
		}

	case isa.STOP:
		extra += c.costs.ThreadOp
		target, f := c.threads.Stop(t, hwthread.VTID(r.Get(in.Rs1)))
		if f != nil {
			c.retired++
			t.Retired++
			c.raise(t, f.Cause, f.Info)
			return 0, false
		}
		c.mon.CancelWait(c.waiters[target.PTID])
		c.suspend(target)
		if target == t {
			// Stopped ourselves: account and stay disabled.
			c.retired++
			t.Retired++
			r.PC = nextPC
			return 0, false
		}

	case isa.RPULL:
		extra += c.costs.ThreadOp
		val, f := c.threads.Rpull(t, hwthread.VTID(r.Get(in.Rs1)), isa.Reg(in.Imm))
		if f != nil {
			c.retired++
			t.Retired++
			c.raise(t, f.Cause, f.Info)
			return 0, false
		}
		r.Set(in.Rd, val)

	case isa.RPUSH:
		extra += c.costs.ThreadOp
		f := c.threads.Rpush(t, hwthread.VTID(r.Get(in.Rs1)), isa.Reg(in.Imm), r.Get(in.Rs2))
		if f != nil {
			c.retired++
			t.Retired++
			c.raise(t, f.Cause, f.Info)
			return 0, false
		}
		// Remote register writes can grow the target's state footprint.
		if isa.Reg(in.Imm).IsFP() {
			if e, ferr := c.threads.Translate(t, hwthread.VTID(r.Get(in.Rs1))); ferr == nil {
				tgt := c.threads.Context(e.PTID)
				_ = c.store.Resize(int(tgt.PTID), tgt.Regs.StateBytes())
			}
		}

	case isa.INVTID:
		extra += c.costs.ThreadOp
		remote := hwthread.VTID(r.Get(in.Rs2))
		// Invalidation must not itself translate (that would re-cache the
		// very row being invalidated). The first operand names whose cache
		// to flush; it is resolved against the caller's *existing* cached
		// translations only, and the caller's own cached row is always
		// dropped too.
		if e, ok := t.CachedEntry(hwthread.VTID(r.Get(in.Rs1))); ok && e.Valid() {
			if tgt := c.threads.Context(e.PTID); tgt != nil {
				tgt.InvalidateVTID(remote)
			}
		}
		t.InvalidateVTID(remote)

	case isa.SYSCALL:
		c.retired++
		t.Retired++
		if c.LegacySyscall != nil {
			// Legacy personality: in-thread privilege switch, handler runs
			// in this very hardware thread, then switches back.
			cost := c.costs.SyscallEntry
			if c.KernelUsesFP && r.FPDirty {
				cost += c.costs.FPSaveRestore
			}
			cost += c.LegacySyscall(c, t)
			cost += c.costs.SyscallExit
			r.PC = nextPC
			lat := c.pipe.ChargedLatency(int(t.PTID), base+cost)
			if c.tr != nil {
				c.tr.Complete(c.ptidTrack(t), "syscall", int64(c.eng.Now()), int64(lat))
			}
			return lat, true
		}
		// nocs personality: exception-less syscall — write a descriptor and
		// disable; the kernel's syscall ptid is mwait-ing on the doorbell.
		r.PC = nextPC
		c.raise(t, hwthread.ExcSyscall, r.GPR[1])
		return 0, false

	case isa.VMCALL:
		c.retired++
		t.Retired++
		if c.LegacyVMExit != nil {
			cost := c.costs.VMExit + c.LegacyVMExit(c, t) + c.costs.VMEntry
			r.PC = nextPC
			lat := c.pipe.ChargedLatency(int(t.PTID), base+cost)
			if c.tr != nil {
				c.tr.Complete(c.ptidTrack(t), "vm-exit", int64(c.eng.Now()), int64(lat))
			}
			return lat, true
		}
		r.PC = nextPC
		c.raise(t, hwthread.ExcVMExit, r.GPR[1])
		return 0, false

	case isa.SYSRET:
		// Supervisor-only (checked above): drop to user mode.
		extra += c.costs.SyscallExit
		r.Mode = 0
	case isa.IRET:
		extra += c.costs.IRQExit
		r.Mode = 0
	case isa.VMRESUME:
		extra += c.costs.VMEntry
	case isa.WRMSR, isa.RDMSR:
		extra += 30 // model MSR access as a fixed microcode cost
	case isa.HLT:
		// Legacy idle: block until an interrupt wakes the core.
		c.retired++
		t.Retired++
		r.PC = nextPC
		t.State = hwthread.Waiting
		c.halted[t.PTID] = true
		c.suspend(t)
		if c.tr != nil {
			c.traceStateBegin(t, "waiting", "hlt")
		}
		return 0, false

	case isa.NATIVE:
		fn, ok := c.natives[in.Sym]
		if !ok {
			c.retired++
			t.Retired++
			c.raise(t, hwthread.ExcInvalidOpcode, pc)
			return 0, false
		}
		extra += fn(c, t)
		c.retired++
		t.Retired++
		if t.State != hwthread.Runnable {
			// The native blocked or disabled this thread. Its PC was left at
			// this instruction unless the native moved it: blocked threads
			// re-enter the native on wake (service-loop idiom).
			return 0, false
		}
		r.PC = nextPC
		return c.pipe.ChargedLatency(int(t.PTID), base+extra), true

	default:
		c.retired++
		t.Retired++
		c.raise(t, hwthread.ExcInvalidOpcode, int64(in.Op))
		return 0, false
	}

	// FP state growth: crossing into vector-dirty doubles the architectural
	// footprint (272 → 784 bytes, §4).
	if !wasFPDirty && r.FPDirty {
		_ = c.store.Resize(int(t.PTID), r.StateBytes())
	}

	c.retired++
	t.Retired++
	r.PC = nextPC
	return c.pipe.ChargedLatency(int(t.PTID), base+extra), true
}

// WakeFromHalt resumes a thread parked by the legacy HLT instruction (the
// IRQ controller calls this when delivering an interrupt to an idle core).
func (c *Core) WakeFromHalt(p hwthread.PTID) {
	t := c.threads.Context(p)
	if t == nil || !c.halted[p] || t.State != hwthread.Waiting {
		return
	}
	delete(c.halted, p)
	t.State = hwthread.Runnable
	t.Wakeups++
	if c.tr != nil {
		c.traceStateEnd(t) // close the "waiting" (hlt) span
	}
	c.resume(t, "irq-wake")
}
