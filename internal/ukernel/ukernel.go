// Package ukernel implements microkernel-style services and the three IPC
// mechanisms experiment F6 compares (§2 "Faster Microkernels and Container
// Proxies"):
//
//  1. Monolithic syscall — the service lives in the kernel; a call is one
//     in-thread mode switch (the Linux shape).
//  2. Legacy microkernel IPC — the service is a separate process; a call is
//     a syscall plus a scheduler invocation plus two software context
//     switches (into the service process and back).
//  3. Direct hardware-thread IPC — the service is a dedicated hardware
//     thread; the client writes a request into a mailbox and the service
//     wakes on the doorbell, "achieving the same result as XPC [30] while
//     using a simpler hardware mechanism. There is no need to move into
//     kernel space and invoke the scheduler."
//
// Mailbox slot layout (32 bytes at base + 32*slot):
//
//	+0:  status (0 free, 1 posted, 2 done) — doorbell, monitored by both sides
//	+8:  op
//	+16: arg
//	+24: result
package ukernel

import (
	"fmt"

	"nocs/internal/hwthread"
	"nocs/internal/kernel"
	"nocs/internal/sim"
)

// WorkFn is a service body: given op and arg it returns the result and its
// service cost in cycles.
type WorkFn func(op, arg int64) (ret int64, cost sim.Cycles)

// Mailbox slot field offsets.
const (
	SlotBytes  = 32
	slotStatus = 0
	slotOp     = 8
	slotArg    = 16
	slotRet    = 24

	// Slot states.
	StatusFree   = 0
	StatusPosted = 1
	StatusDone   = 2
	// StatusBusy marks a request the service has accepted but not finished;
	// it prevents double-service while the reply write is in flight.
	StatusBusy = 3
)

// MailboxService is a microkernel service running on a dedicated hardware
// thread, woken by mailbox doorbell writes.
type MailboxService struct {
	Name  string
	Base  int64
	Slots int

	k     *kernel.Nocs
	work  WorkFn
	calls uint64
}

// NewMailboxService spawns the service thread watching all slot doorbells.
func NewMailboxService(k *kernel.Nocs, name string, base int64, slots int, work WorkFn) (*MailboxService, error) {
	if slots < 1 {
		return nil, fmt.Errorf("ukernel: service %q needs at least one slot", name)
	}
	s := &MailboxService{Name: name, Base: base, Slots: slots, k: k, work: work}
	doorbells := make([]int64, slots)
	for i := range doorbells {
		doorbells[i] = base + int64(i)*SlotBytes + slotStatus
	}
	c := k.Core()
	_, err := k.SpawnService(name, func() []int64 { return doorbells },
		func(t *hwthread.Context) sim.Cycles {
			var cost sim.Cycles
			for i := 0; i < slots; i++ {
				sb := base + int64(i)*SlotBytes
				if c.ReadWord(sb+slotStatus) != StatusPosted {
					continue
				}
				c.WriteWord(sb+slotStatus, StatusBusy)
				op := c.ReadWord(sb + slotOp)
				arg := c.ReadWord(sb + slotArg)
				ret, wcost := work(op, arg)
				cost += wcost + c.AccessCost(sb)
				s.calls++
				// The reply lands once the service has actually done the
				// work (wake time + everything processed ahead of it).
				c.Shard().After(cost, "ipc-reply", func() {
					c.WriteWord(sb+slotRet, ret)
					c.WriteWord(sb+slotStatus, StatusDone) // reply doorbell
				})
			}
			return cost
		})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Calls returns the number of requests served.
func (s *MailboxService) Calls() uint64 { return s.calls }

// SlotBase returns the address of slot i.
func (s *MailboxService) SlotBase(i int) int64 { return s.Base + int64(i)*SlotBytes }

// ClientCallSource returns assembly for a blocking call through slot
// registers: the caller places op in r2 and arg in r3 and receives the
// result in r1. r10 must hold the slot base (set it with SetupClientRegs).
// The client arms its monitor BEFORE posting the doorbell, so the service's
// reply can never be lost; its own doorbell store triggers an immediate
// spurious wake which the status check filters out.
//
// CLOBBERS: r1, r4, r5, r6, r11. Callers must keep loop state elsewhere.
//
// The returned fragment defines labels prefixed with the given tag and
// falls through to the instruction after `<tag>_ret:`.
func ClientCallSource(tag string) string {
	return fmt.Sprintf(`
%[1]s_call:
	st [r10+8], r2      ; op
	st [r10+16], r3     ; arg
	mov r11, r10        ; status address = slot base
	monitor r11         ; arm before posting (no lost reply)
	movi r5, 1
	st [r10+0], r5      ; post doorbell
%[1]s_wait:
	mwait
	ld r6, [r10+0]
	movi r4, 2
	beq r6, r4, %[1]s_ret
	monitor r11         ; spurious wake (our own store): re-arm
	jmp %[1]s_wait
%[1]s_ret:
	ld r1, [r10+24]     ; result
	movi r5, 0
	st [r10+0], r5      ; release slot
`, tag)
}

// SetupClientRegs points a client thread's r10 at its slot.
func (s *MailboxService) SetupClientRegs(t *hwthread.Context, slot int) {
	t.Regs.GPR[10] = s.SlotBase(slot)
}

// RegisterMonolithic installs the service as an ordinary in-kernel syscall
// (mechanism 1): one in-thread mode switch per call.
func RegisterMonolithic(k *kernel.Legacy, num int64, work WorkFn) {
	k.RegisterSyscall(num, func(t *hwthread.Context, args [4]int64) (int64, sim.Cycles) {
		return work(args[0], args[1])
	})
}

// LegacyIPCCosts prices mechanism 2's kernel-side overhead.
type LegacyIPCCosts struct {
	// Scheduler is the run-queue manipulation cost per direction
	// (default 400 — picking the service process, then the client again).
	Scheduler sim.Cycles
}

// RegisterLegacyIPC installs the service behind a scheduler-mediated IPC
// syscall (mechanism 2): the syscall's in-thread mode switch is charged by
// the core as usual; on top, each call pays two scheduler invocations and
// two software context switches (to the service process and back), which is
// what the paper says makes microkernels slow today.
func RegisterLegacyIPC(k *kernel.Legacy, num int64, costs LegacyIPCCosts, work WorkFn) {
	if costs.Scheduler == 0 {
		costs.Scheduler = 400
	}
	cs := k.Core().Costs().ContextSwitch
	k.RegisterSyscall(num, func(t *hwthread.Context, args [4]int64) (int64, sim.Cycles) {
		ret, wcost := work(args[0], args[1])
		total := 2*costs.Scheduler + 2*cs + wcost
		return ret, total
	})
}

// Canned services used by the F6 experiment and the examples.

// FSWork models a file-system lookup/read: 800 cycles, echoes arg+op.
func FSWork(op, arg int64) (int64, sim.Cycles) { return arg + op, 800 }

// NetWork models a network-stack send: 600 cycles, returns bytes "sent".
func NetWork(op, arg int64) (int64, sim.Cycles) { return arg, 600 }
