package kernel

import (
	"fmt"

	"nocs/internal/asm"
	"nocs/internal/core"
	"nocs/internal/hwthread"
	"nocs/internal/isa"
	"nocs/internal/sim"
)

// Nocs is the paper's kernel personality. Kernel services are dedicated
// hardware threads parked in monitor/mwait; there are no interrupts, no
// in-thread mode switches, and no software context switches on the request
// path. SYSCALL and faults write exception descriptors (the core is left in
// descriptor mode — do not install a LegacySyscall hook on the same core).
type Nocs struct {
	c *core.Core
	// DispatchCost is the syscall-service demultiplex cost (counterpart of
	// Legacy.DispatchCost, so F3 compares mechanisms, not handler code).
	DispatchCost sim.Cycles

	table     map[int64]SyscallFn
	btable    map[int64]BlockingSyscallFn
	nextPtid  hwthread.PTID
	syscalls  uint64
	unknown   uint64
	services  int
	nativeSeq int
	reArms    uint64
	// svcParked holds each service thread's "last blocked in mwait" flag,
	// indexed by spawn order. Kept here rather than in per-service closure
	// state so the kernel's dynamic state is checkpointable (DESIGN.md §13).
	svcParked []bool
}

// NewNocs installs the nocs personality on a core. Hardware threads are
// allocated from the top of the ptid space downward so low ptids remain
// free for application use.
func NewNocs(c *core.Core) *Nocs {
	return &Nocs{
		c:            c,
		DispatchCost: 50,
		table:        make(map[int64]SyscallFn),
		btable:       make(map[int64]BlockingSyscallFn),
		nextPtid:     hwthread.PTID(c.Threads().Len() - 1),
	}
}

// Core returns the kernel's core.
func (k *Nocs) Core() *core.Core { return k.c }

// RegisterSyscall binds number to fn (shared table with ServeSyscalls).
func (k *Nocs) RegisterSyscall(num int64, fn SyscallFn) { k.table[num] = fn }

// BlockingSyscallFn is a syscall that may park its caller: returning
// park=true leaves the calling thread disabled (it was disabled by the
// SYSCALL descriptor write) instead of restarting it — the exception-less
// blocking path. A later Unpark resumes it. park=false behaves exactly
// like a plain syscall.
type BlockingSyscallFn func(t *hwthread.Context, args [4]int64) (park bool, ret int64, cost sim.Cycles)

// RegisterBlockingSyscall binds number to a syscall that may park its
// caller (futex-style waits, DESIGN.md §14).
func (k *Nocs) RegisterBlockingSyscall(num int64, fn BlockingSyscallFn) { k.btable[num] = fn }

// Unpark resumes a thread parked by a blocking syscall: after the given
// delay its r1 is set to ret and it is restarted. The ptid must still be
// disabled when the delay elapses (nothing else restarts parked callers).
func (k *Nocs) Unpark(p hwthread.PTID, ret int64, after sim.Cycles) {
	user := k.c.Threads().Context(p)
	if user == nil {
		panic(fmt.Sprintf("kernel: unpark of unknown ptid %d", p))
	}
	k.c.Shard().After(after, "syscall-unpark", func() {
		user.Regs.GPR[1] = ret
		if err := k.c.StartThreadSupervised(p); err != nil {
			panic(err)
		}
	})
}

// Syscalls returns (handled, unknown) counts.
func (k *Nocs) Syscalls() (handled, unknown uint64) { return k.syscalls, k.unknown }

// AllocPtid hands out a kernel hardware thread.
func (k *Nocs) AllocPtid() (hwthread.PTID, error) {
	if k.nextPtid < 0 {
		return 0, fmt.Errorf("kernel: out of hardware threads")
	}
	p := k.nextPtid
	k.nextPtid--
	return p, nil
}

// ServiceFunc is a kernel service body. It is invoked on the service's
// hardware thread whenever one of its watched addresses is written, and
// returns its processing cost. Returning 0 means "no work found": only then
// does the service park in mwait. A non-zero cost keeps the thread runnable
// for that many (pipeline-shared) cycles and re-enters the body afterwards,
// so service work genuinely occupies the hardware thread — requests queue
// behind it exactly as they would on real hardware.
type ServiceFunc func(t *hwthread.Context) sim.Cycles

// SpawnService creates a dedicated kernel hardware thread that services
// events on the watched addresses — the paper's "designate a hardware thread
// per core per interrupt type" (§2), generalized. watch is re-evaluated
// before each park so services can watch dynamic address sets.
//
// The service thread runs supervisor-mode assembly:
//
//	loop: native <svc>   ; handler + re-arm + mwait (blocks inside native)
//	      jmp loop
func (k *Nocs) SpawnService(name string, watch func() []int64, fn ServiceFunc) (hwthread.PTID, error) {
	p, err := k.AllocPtid()
	if err != nil {
		return 0, err
	}
	k.nativeSeq++
	sym := fmt.Sprintf("nocs.svc.%d.%s", k.nativeSeq, name)
	svc := len(k.svcParked) // true while the service last blocked in mwait
	k.svcParked = append(k.svcParked, false)
	k.c.RegisterNative(sym, func(c *core.Core, t *hwthread.Context) sim.Cycles {
		fromPark := k.svcParked[svc]
		k.svcParked[svc] = false
		// Race-free doorbell idiom: arm BEFORE draining, so a write that
		// lands while fn processes is caught by the monitor pending flag
		// and the eventual WaitArmed completes immediately instead of
		// sleeping through it.
		c.ArmWatches(t, watch()...)
		cost := fn(t)
		if t.State != hwthread.Runnable {
			// fn blocked or stopped the thread itself.
			return cost
		}
		if cost > 0 {
			// Work was done: charge it and loop back to re-check. Parking
			// here would erase the processing time (a blocked thread's
			// pending instruction cost is never charged), letting the
			// service do work in zero virtual time.
			return cost
		}
		if fromPark {
			// The service was woken out of mwait and found no work: a
			// spurious (or already-coalesced) wakeup. The graceful response
			// is exactly this pass — the watches were re-armed above and
			// the thread parks again below; count it as evidence.
			k.reArms++
		}
		if c.WaitArmed(t) {
			k.svcParked[svc] = true
		}
		// Blocked: the thread re-enters this native on wakeup.
		// Not blocked (write landed since arming): re-enter immediately.
		return cost
	})
	prog := asm.MustAssemble(sym, fmt.Sprintf("loop:\n\tnative %s\n\tjmp loop\n", sym))
	if err := k.c.BindProgram(p, prog, "loop"); err != nil {
		return 0, err
	}
	t := k.c.Threads().Context(p)
	t.Regs.Mode = 1 // kernel services run in supervisor mode
	k.services++
	if err := k.c.BootStart(p); err != nil {
		return 0, err
	}
	return p, nil
}

// ServeSyscalls spawns the dedicated syscall-service thread (§2
// "Exception-less System Calls"): it watches the exception-descriptor
// doorbells of the given user threads; when a user executes SYSCALL the
// hardware writes an ExcSyscall descriptor and disables the user; the
// service wakes, executes the call, writes the result into the user's r1
// via the remote-register mechanism, clears the doorbell, and restarts the
// user thread. Each user ptid is assigned a descriptor slot at
// descBase + 64*i and its EDP is set accordingly.
func (k *Nocs) ServeSyscalls(users []hwthread.PTID, descBase int64) (hwthread.PTID, error) {
	doorbells := make([]int64, len(users))
	for i, u := range users {
		t := k.c.Threads().Context(u)
		if t == nil {
			return 0, fmt.Errorf("kernel: no user ptid %d", u)
		}
		edp := descBase + int64(i)*64
		t.Regs.EDP = edp
		doorbells[i] = edp + hwthread.DescCauseOff
	}
	watch := func() []int64 { return doorbells }
	return k.SpawnService("syscall", watch, func(t *hwthread.Context) sim.Cycles {
		var cost sim.Cycles
		for i, u := range users {
			u := u
			edp := descBase + int64(i)*64
			d := hwthread.ReadDescriptor(k.c.Mem(), edp)
			if d.Cause != hwthread.ExcSyscall {
				continue
			}
			// Clear immediately so a re-scan cannot double-serve the call.
			hwthread.ClearDescriptor(k.c.Mem(), edp)
			cost += k.DispatchCost
			user := k.c.Threads().Context(u)
			args := [4]int64{user.Regs.GPR[2], user.Regs.GPR[3], user.Regs.GPR[4], user.Regs.GPR[5]}
			if bfn, ok := k.btable[d.Info]; ok {
				park, ret, sysCost := bfn(user, args)
				cost += sysCost
				k.syscalls++
				if park {
					// The caller stays disabled until Unpark; blocking cost
					// one descriptor write, not a context switch.
					continue
				}
				cost += k.c.Costs().ThreadOp
				k.c.Shard().After(cost, "syscall-done", func() {
					user.Regs.GPR[1] = ret
					if err := k.c.StartThreadSupervised(u); err != nil {
						panic(err)
					}
				})
				continue
			}
			fn, ok := k.table[d.Info]
			ret := int64(-1)
			if ok {
				var sysCost sim.Cycles
				ret, sysCost = fn(user, args)
				cost += sysCost
				k.syscalls++
			} else {
				k.unknown++
			}
			cost += k.c.Costs().ThreadOp // the start instruction
			// The user resumes only after the service has actually executed
			// the call: result delivery and restart land at +cost, not at
			// wake time.
			k.c.Shard().After(cost, "syscall-done", func() {
				user.Regs.GPR[1] = ret
				if err := k.c.StartThreadSupervised(u); err != nil {
					panic(err) // user threads were validated above
				}
			})
		}
		return cost
	})
}

// ServeDevice spawns an event thread for a device queue (§2 "Fast I/O
// without Inefficient Polling"): it watches tailAddr, and on each wake
// drains seq numbers head..tail, charging perEvent cycles and invoking
// onEvent with each event's *completion* time (wake time plus the
// processing of it and everything queued ahead of it). The consumption
// count is published to headAddr (if non-zero) for device flow control.
func (k *Nocs) ServeDevice(name string, tailAddr, headAddr int64, perEvent sim.Cycles,
	onEvent func(seq int64, at sim.Cycles)) (hwthread.PTID, error) {
	if headAddr == 0 {
		return 0, fmt.Errorf("kernel: device service %q needs a head counter address", name)
	}
	return k.SpawnService(name, func() []int64 { return []int64{tailAddr} },
		func(t *hwthread.Context) sim.Cycles {
			var head int64
			if headAddr != 0 {
				head = k.c.ReadWord(headAddr)
			}
			tail := k.c.ReadWord(tailAddr)
			if tail == head {
				return 0 // empty pass: park
			}
			cost := k.c.AccessCost(tailAddr)
			for seq := head; seq < tail; seq++ {
				cost += perEvent
				if onEvent != nil {
					onEvent(seq, k.c.Now()+cost)
				}
			}
			if headAddr != 0 && tail != head {
				k.c.WriteWord(headAddr, tail)
			}
			return cost
		})
}

// SpawnRequest runs a synthetic request of the given demand on a dedicated
// hardware thread (§2 "Simpler Distributed Programming": one hardware
// thread per request with blocking semantics). The demand is consumed in
// quantum-sized native steps so the pipeline's processor sharing applies
// continuously. onDone is called with the completion time.
//
// The ptid is reserved by the caller (use AllocPtid or application-owned
// ptids) and is left disabled after completion for reuse.
type RequestRunner struct {
	k       *Nocs
	quantum sim.Cycles
	sym     string
	// remaining demand per ptid
	remaining map[hwthread.PTID]sim.Cycles
	onDone    map[hwthread.PTID]func(at sim.Cycles)
	prog      *isa.Program
}

// NewRequestRunner builds the request execution machinery with the given
// work quantum (smaller quanta track PS sharing more precisely; default 200).
func (k *Nocs) NewRequestRunner(quantum sim.Cycles) *RequestRunner {
	if quantum < 1 {
		quantum = 200
	}
	k.nativeSeq++
	sym := fmt.Sprintf("nocs.req.%d", k.nativeSeq)
	r := &RequestRunner{
		k: k, quantum: quantum, sym: sym,
		remaining: make(map[hwthread.PTID]sim.Cycles),
		onDone:    make(map[hwthread.PTID]func(at sim.Cycles)),
	}
	k.c.RegisterNative(sym, func(c *core.Core, t *hwthread.Context) sim.Cycles {
		rem := r.remaining[t.PTID]
		step := r.quantum
		if rem < step {
			step = rem
		}
		rem -= step
		r.remaining[t.PTID] = rem
		if rem <= 0 {
			// Done. The final quantum still occupies the pipeline for its
			// contention-scaled time; the thread is disabled (and the
			// completion delivered) exactly when that time elapses, so the
			// worker is reusable from the callback but never vanishes from
			// the SMT slots early.
			fin := c.Pipeline().ChargedLatency(int(t.PTID), step)
			fn := r.onDone[t.PTID]
			delete(r.onDone, t.PTID)
			c.Shard().After(fin, "req-done", func() {
				c.StopThread(t.PTID)
				if fn != nil {
					fn(c.Now())
				}
			})
		}
		return step
	})
	r.prog = asm.MustAssemble(sym, fmt.Sprintf(`
entry:
	native %s
	jmp entry
`, sym))
	return r
}

// Start launches a request of the given demand on ptid. The ptid must be
// disabled (fresh or completed).
func (r *RequestRunner) Start(p hwthread.PTID, demand sim.Cycles, onDone func(at sim.Cycles)) error {
	t := r.k.c.Threads().Context(p)
	if t == nil {
		return fmt.Errorf("kernel: no ptid %d", p)
	}
	if t.State != hwthread.Disabled {
		return fmt.Errorf("kernel: ptid %d is %v, want disabled", p, t.State)
	}
	if err := r.k.c.BindProgram(p, r.prog, "entry"); err != nil {
		return err
	}
	if demand < 1 {
		demand = 1
	}
	r.remaining[p] = demand
	r.onDone[p] = onDone
	return r.k.c.StartThreadSupervised(p)
}
