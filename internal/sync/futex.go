package sync

import (
	"fmt"

	"nocs/internal/core"
	"nocs/internal/hwthread"
	"nocs/internal/kernel"
	"nocs/internal/sim"
)

// Futex syscall numbers (nocs personality: exception-less descriptor
// doorbells) and native symbols (legacy personality: in-thread trap model).
const (
	SysFutexWait = 60 // r2 = address, r3 = expected value; r1 = 0 slept, 1 EAGAIN
	SysFutexWake = 61 // r2 = address, r3 = max waiters;   r1 = number woken

	NativeFutexWait = "sync.futex.wait"
	NativeFutexWake = "sync.futex.wake"
)

// FutexService is the kernel half of the futex-analog: a per-address FIFO
// of parked hardware threads. It has two installations sharing one waiter
// table:
//
//   - InstallNocs registers futex_wait/futex_wake as syscalls on the nocs
//     personality. SYSCALL writes an exception descriptor and disables the
//     caller; the kernel's descriptor-service thread executes the call and
//     simply does not restart a parked caller — blocking costs one
//     descriptor write, never a context switch.
//   - InstallLegacy registers natives modeling the conventional path: the
//     trap charges SyscallEntry/SyscallExit, parking and waking each charge
//     a ContextSwitch before the waiter runs again.
type FutexService struct {
	c *core.Core

	waiters map[int64][]hwthread.PTID // FIFO per futex word
	waits   uint64                    // calls that actually slept
	wakes   uint64                    // threads woken
}

// NewFutexService creates the waiter table for one core.
func NewFutexService(c *core.Core) *FutexService {
	return &FutexService{c: c, waiters: make(map[int64][]hwthread.PTID)}
}

func (f *FutexService) park(addr int64, p hwthread.PTID) {
	f.waiters[addr] = append(f.waiters[addr], p)
	f.waits++
}

// pop removes up to n waiters from addr's FIFO.
func (f *FutexService) pop(addr int64, n int64) []hwthread.PTID {
	q := f.waiters[addr]
	if int64(len(q)) < n {
		n = int64(len(q))
	}
	if n <= 0 {
		return nil
	}
	woken := q[:n:n]
	rest := q[n:]
	if len(rest) == 0 {
		delete(f.waiters, addr)
	} else {
		f.waiters[addr] = append([]hwthread.PTID(nil), rest...)
	}
	f.wakes += uint64(len(woken))
	return woken
}

// InstallNocs registers the futex syscalls on the nocs kernel. The caller
// still spawns the descriptor service via k.ServeSyscalls.
func (f *FutexService) InstallNocs(k *kernel.Nocs) {
	k.RegisterBlockingSyscall(SysFutexWait,
		func(t *hwthread.Context, args [4]int64) (park bool, ret int64, cost sim.Cycles) {
			addr, expected := args[0], args[1]
			if f.c.ReadWord(addr) != expected {
				return false, 1, f.c.AccessCost(addr)
			}
			f.park(addr, t.PTID)
			return true, 0, f.c.AccessCost(addr)
		})
	k.RegisterSyscall(SysFutexWake,
		func(t *hwthread.Context, args [4]int64) (ret int64, cost sim.Cycles) {
			woken := f.pop(args[0], args[1])
			for _, p := range woken {
				k.Unpark(p, 0, f.c.Costs().ThreadOp)
			}
			return int64(len(woken)), f.c.AccessCost(args[0])
		})
}

// InstallLegacy registers the futex natives on a core: the conventional
// syscall-parking path with its trap and context-switch costs.
func (f *FutexService) InstallLegacy(c *core.Core) {
	if c != f.c {
		panic("sync: FutexService installed on a different core")
	}
	costs := c.Costs()
	trap := costs.SyscallEntry + costs.SyscallExit
	c.RegisterNative(NativeFutexWait, func(c *core.Core, t *hwthread.Context) sim.Cycles {
		addr, expected := t.Regs.GPR[2], t.Regs.GPR[3]
		if c.ReadWord(addr) != expected {
			t.Regs.GPR[1] = 1
			return trap + c.AccessCost(addr)
		}
		// Park: the kernel switches this thread out. The wake side charges
		// the switch-in; resume lands after this native.
		f.park(addr, t.PTID)
		t.Regs.GPR[1] = 0
		t.Regs.PC++
		c.StopThread(t.PTID)
		return 0
	})
	c.RegisterNative(NativeFutexWake, func(c *core.Core, t *hwthread.Context) sim.Cycles {
		woken := f.pop(t.Regs.GPR[2], t.Regs.GPR[3])
		for i, p := range woken {
			p := p
			// Each waiter pays a context switch back in; successive wakes
			// are serialized the way a run queue drains.
			delay := costs.ContextSwitch * sim.Cycles(i+1)
			c.Shard().After(delay, "futex-switch-in", func() {
				if err := c.StartThreadSupervised(p); err != nil {
					panic(fmt.Sprintf("sync: futex wake of ptid %d: %v", p, err))
				}
			})
		}
		t.Regs.GPR[1] = int64(len(woken))
		return trap + c.AccessCost(t.Regs.GPR[2])
	})
}
