package kernel

import (
	"nocs/internal/core"
	"nocs/internal/hwthread"
	"nocs/internal/irq"
	"nocs/internal/sim"
)

// SyscallFn implements one system call. It receives the calling thread's
// context (arguments in r2–r5 by ABI) and returns the result and its
// service cost in cycles.
type SyscallFn func(t *hwthread.Context, args [4]int64) (ret int64, cost sim.Cycles)

// Legacy is the conventional kernel personality: syscalls switch privilege
// mode inside the calling hardware thread (charging the core's
// SyscallEntry/SyscallExit costs), and I/O completions arrive as interrupts.
type Legacy struct {
	c *core.Core
	// DispatchCost is the in-kernel syscall demultiplex cost.
	DispatchCost sim.Cycles

	table    map[int64]SyscallFn
	syscalls uint64
	unknown  uint64
}

// NewLegacy installs the legacy personality on a core: after this call,
// SYSCALL instructions on that core perform in-thread mode switches.
func NewLegacy(c *core.Core) *Legacy {
	k := &Legacy{c: c, DispatchCost: 50, table: make(map[int64]SyscallFn)}
	c.LegacySyscall = k.handleSyscall
	return k
}

// Core returns the kernel's core.
func (k *Legacy) Core() *core.Core { return k.c }

// RegisterSyscall binds number to fn.
func (k *Legacy) RegisterSyscall(num int64, fn SyscallFn) {
	k.table[num] = fn
}

// Syscalls returns (handled, unknown) counts.
func (k *Legacy) Syscalls() (handled, unknown uint64) { return k.syscalls, k.unknown }

// handleSyscall is the core's LegacySyscall hook. ABI: r1 = number,
// r2–r5 = arguments, result in r1.
func (k *Legacy) handleSyscall(c *core.Core, t *hwthread.Context) sim.Cycles {
	num := t.Regs.GPR[1]
	fn, ok := k.table[num]
	if !ok {
		k.unknown++
		t.Regs.GPR[1] = -1
		return k.DispatchCost
	}
	k.syscalls++
	args := [4]int64{t.Regs.GPR[2], t.Regs.GPR[3], t.Regs.GPR[4], t.Regs.GPR[5]}
	ret, cost := fn(t, args)
	t.Regs.GPR[1] = ret
	return k.DispatchCost + cost
}

// ServeNICWithIRQ wires interrupt-driven packet receive (the F2 baseline):
// each NIC interrupt enters IRQ context on the victim thread, drains the RX
// ring (head..tail), charges perPacket cycles for each packet, and invokes
// onPacket with each packet's completion time — IRQ-context entry plus the
// processing of it and everything ahead of it in the batch. headAddr is the
// software consumption counter published back for the NIC's overrun check.
func (k *Legacy) ServeNICWithIRQ(ctrl *irq.Controller, vector irq.Vector,
	victim hwthread.PTID, tailAddr, headAddr int64, perPacket sim.Cycles,
	onPacket func(seq int64, at sim.Cycles)) error {
	entry := ctrl.Costs().Entry
	return ctrl.Register(vector, k.c, victim, func(v irq.Vector, at sim.Cycles) sim.Cycles {
		head := k.c.ReadWord(headAddr)
		tail := k.c.ReadWord(tailAddr)
		var cost sim.Cycles
		for seq := head; seq < tail; seq++ {
			cost += perPacket
			if onPacket != nil {
				onPacket(seq, at+entry+cost)
			}
		}
		if tail != head {
			k.c.WriteWord(headAddr, tail)
		}
		return cost
	})
}

// FlexSC is the exception-less *software* baseline from FlexSC (Soares &
// Stumm, OSDI '10), which the paper cites as the best a conventional kernel
// can do without new hardware: user threads post syscalls to shared memory
// pages and dedicated kernel threads execute them in batches, trading mode
// switches for polling latency and a dedicated core.
//
// Syscall page layout (32 bytes per entry at pageBase + 32*i):
//
//	+0:  status (0 free, 1 posted, 2 done)
//	+8:  syscall number
//	+16: argument
//	+24: result
//
// User code posts a call with three stores (number, argument, then status
// 1) and spins on the status word until it reads 2.
type FlexSC struct {
	k        *Legacy
	pageBase int64 // the shared syscall page address
	entries  int   // the page capacity

	executed uint64
}

const (
	// flexscScanCost is charged per scan pass; flexscEntryCost per executed
	// call (on top of the syscall's own cost).
	flexscScanCost  = sim.Cycles(60)
	flexscEntryCost = sim.Cycles(40)

	flexscEntryBytes = 32
	flexscStatus     = 0
	flexscNum        = 8
	flexscArg        = 16
	flexscRes        = 24

	// FlexSC entry states.
	flexscFree   = 0
	flexscPosted = 1
	flexscDone   = 2
)

// NewFlexSC creates the shared-page machinery and registers the kernel-side
// worker native ("flexsc.scan") on the kernel's own core. Bind a program
// that loops `native flexsc.scan; jmp` on a dedicated supervisor ptid to run
// it — that thread is the "dedicated kernel core" FlexSC burns.
func NewFlexSC(k *Legacy, pageBase int64, entries int) *FlexSC {
	f := &FlexSC{k: k, pageBase: pageBase, entries: entries}
	k.c.RegisterNative("flexsc.scan", f.scan)
	return f
}

// RegisterWorkerOn makes the scan native available on another core, so the
// dedicated FlexSC worker can run on its own physical core (the usual FlexSC
// deployment: syscall threads pinned away from application cores).
func (f *FlexSC) RegisterWorkerOn(c *core.Core) {
	c.RegisterNative("flexsc.scan", f.scan)
}

// WorkerProgramSource returns the assembly for the kernel-side poller.
func (f *FlexSC) WorkerProgramSource() string {
	return "worker:\n\tnative flexsc.scan\n\tjmp worker\n"
}

// Executed returns the number of syscalls executed through the page.
func (f *FlexSC) Executed() uint64 { return f.executed }

// scan is the kernel worker body: execute every posted entry in the page.
func (f *FlexSC) scan(c *core.Core, t *hwthread.Context) sim.Cycles {
	cost := flexscScanCost
	for i := 0; i < f.entries; i++ {
		base := f.pageBase + int64(i)*flexscEntryBytes
		if c.ReadWord(base+flexscStatus) != flexscPosted {
			continue
		}
		num := c.ReadWord(base + flexscNum)
		arg := c.ReadWord(base + flexscArg)
		fn, ok := f.k.table[num]
		ret := int64(-1)
		if ok {
			var sysCost sim.Cycles
			ret, sysCost = fn(t, [4]int64{arg})
			cost += sysCost
			f.k.syscalls++
		} else {
			f.k.unknown++
		}
		cost += flexscEntryCost
		c.WriteWord(base+flexscRes, ret)
		c.WriteWord(base+flexscStatus, flexscDone)
		f.executed++
	}
	return cost
}
