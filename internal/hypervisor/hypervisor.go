// Package hypervisor models virtual-machine exit handling both ways the
// paper contrasts (§2 "Exception-less System Calls and No VM-Exits",
// "Untrusted Hypervisors"):
//
//   - Legacy trusted: a VM-exit switches the *same* hardware thread to root
//     mode (VMExit cycles), runs the in-kernel hypervisor, and re-enters the
//     guest (VMEntry cycles). This is KVM's shape.
//   - Legacy untrusted: the hypervisor runs deprivileged (ring 3 in root
//     mode), so every exit additionally crosses kernel↔hypervisor process
//     boundaries — two software context switches on top of the exit/entry
//     pair. This is the design the paper says is too expensive today.
//   - Nocs: the guest's VMCALL / privileged instruction writes an exit
//     descriptor and disables the guest ptid; the hypervisor is just
//     another (unprivileged!) hardware thread mwait-ing on the doorbell.
//     Exits that need kernel help hand off to the kernel's hardware thread
//     the same way — the §2 chain "VM-exits would stop the virtual
//     machine's hardware thread and start the hypervisor's hardware
//     thread ... it could, in turn, start the kernel's hardware thread."
package hypervisor

import (
	"fmt"

	"nocs/internal/core"
	"nocs/internal/hwthread"
	"nocs/internal/kernel"
	"nocs/internal/sim"
)

// ExitKind classifies an exit by the work it needs. The guest passes it in
// r1 when executing VMCALL. Privileged instructions, and any value other
// than ExitIO, are priced as ExitCPU.
type ExitKind int64

const (
	// ExitCPU is a pure-CPU emulation exit (cpuid/wrmsr-style).
	ExitCPU ExitKind = iota + 1
	// ExitIO needs kernel help (device access, page fault I/O).
	ExitIO
)

// Config prices the hypervisor's own work.
type Config struct {
	// EmulateCost is the pure-CPU emulation work per exit (default 400).
	EmulateCost sim.Cycles
	// IOCost is the kernel-side work for I/O exits (default 2000).
	IOCost sim.Cycles
}

func (c *Config) setDefaults() {
	if c.EmulateCost == 0 {
		c.EmulateCost = 400
	}
	if c.IOCost == 0 {
		c.IOCost = 2000
	}
}

// Legacy is the in-thread VM-exit hypervisor.
type Legacy struct {
	cfg       Config
	c         *core.Core
	untrusted bool
	exits     uint64
	ioExits   uint64
}

// AttachLegacy installs a trusted (in-kernel) legacy hypervisor on the core:
// VMCALL and guest privileged instructions become in-thread exits.
func AttachLegacy(c *core.Core, cfg Config) *Legacy {
	cfg.setDefaults()
	h := &Legacy{cfg: cfg, c: c}
	c.LegacyVMExit = h.handleExit
	return h
}

// AttachLegacyUntrusted installs a deprivileged legacy hypervisor: each exit
// pays two software context switches (kernel → hypervisor process → kernel)
// on top of the exit/entry transitions.
func AttachLegacyUntrusted(c *core.Core, cfg Config) *Legacy {
	h := AttachLegacy(c, cfg)
	h.untrusted = true
	return h
}

// Exits returns (total, I/O) exit counts.
func (h *Legacy) Exits() (total, io uint64) { return h.exits, h.ioExits }

func (h *Legacy) handleExit(c *core.Core, t *hwthread.Context) sim.Cycles {
	h.exits++
	cost := h.cfg.EmulateCost
	kind := ExitKind(t.Regs.GPR[1])
	if kind == ExitIO {
		h.ioExits++
		cost += h.cfg.IOCost
	}
	if h.untrusted {
		// Kernel dispatches to the deprivileged hypervisor process and back.
		cost += 2 * c.Costs().ContextSwitch
		if kind == ExitIO {
			// The hypervisor must re-enter the kernel for the I/O itself:
			// one more syscall round trip.
			cost += c.Costs().SyscallEntry + c.Costs().SyscallExit
		}
	}
	return cost
}

// Nocs is the hardware-thread hypervisor: one unprivileged service thread
// per guest set, woken by exit descriptors.
type Nocs struct {
	cfg    Config
	k      *kernel.Nocs
	c      *core.Core
	exits  uint64
	ioMail int64 // kernel handoff mailbox (0 = trusted, no kernel thread)

	guests []hwthread.PTID
}

// ServeGuests spawns the hypervisor hardware thread for the given guest
// ptids, assigning each an exit-descriptor slot at descBase + 64*i and
// marking them as guests. If kernelMailbox is non-zero, I/O exits are handed
// to a separate kernel hardware thread through that mailbox — the fully
// untrusted configuration (the hypervisor thread itself stays in user mode).
func ServeGuests(k *kernel.Nocs, guests []hwthread.PTID, descBase int64,
	kernelMailbox int64, cfg Config) (*Nocs, error) {
	cfg.setDefaults()
	c := k.Core()
	h := &Nocs{cfg: cfg, k: k, c: c, ioMail: kernelMailbox, guests: guests}

	doorbells := make([]int64, len(guests))
	for i, g := range guests {
		t := c.Threads().Context(g)
		if t == nil {
			return nil, fmt.Errorf("hypervisor: no guest ptid %d", g)
		}
		edp := descBase + int64(i)*64
		t.Regs.EDP = edp
		c.MarkGuest(g, true)
		doorbells[i] = edp + hwthread.DescCauseOff
	}

	if kernelMailbox != 0 {
		// Kernel I/O thread: watches the mailbox; word = guest ptid + 1.
		_, err := k.SpawnService("hv-kernel-io", func() []int64 { return []int64{kernelMailbox} },
			func(t *hwthread.Context) sim.Cycles {
				v := c.ReadWord(kernelMailbox)
				if v == 0 {
					return 0
				}
				c.WriteWord(kernelMailbox, 0)
				guest := hwthread.PTID(v - 1)
				cost := cfg.IOCost + c.Costs().ThreadOp
				// The guest resumes only after the I/O work is done.
				c.Shard().After(cost, "hv-io-done", func() {
					if err := c.StartThreadSupervised(guest); err != nil {
						panic(err) // guests validated at ServeGuests time
					}
				})
				return cost
			})
		if err != nil {
			return nil, err
		}
	}

	_, err := k.SpawnService("hypervisor", func() []int64 { return doorbells },
		func(t *hwthread.Context) sim.Cycles {
			var cost sim.Cycles
			for i, g := range guests {
				edp := descBase + int64(i)*64
				d := hwthread.ReadDescriptor(c.Mem(), edp)
				if d.Cause != hwthread.ExcVMExit {
					continue
				}
				h.exits++
				g := g
				hwthread.ClearDescriptor(c.Mem(), edp)
				cost += cfg.EmulateCost
				guest := c.Threads().Context(g)
				kind := ExitKind(guest.Regs.GPR[1])
				if kind == ExitIO && kernelMailbox != 0 {
					// Hand off to the kernel hardware thread once the
					// hypervisor-side work is done; the kernel thread
					// restarts the guest when the I/O completes.
					handoff := cost + c.Costs().ThreadOp
					cost = handoff
					c.Shard().After(handoff, "hv-handoff", func() {
						c.WriteWord(kernelMailbox, int64(g)+1)
					})
					continue
				}
				if kind == ExitIO {
					cost += cfg.IOCost
				}
				cost += c.Costs().ThreadOp
				restartAt := cost
				c.Shard().After(restartAt, "hv-resume", func() {
					if err := c.StartThreadSupervised(g); err != nil {
						panic(err)
					}
				})
			}
			return cost
		})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// Exits returns the number of descriptor exits handled.
func (h *Nocs) Exits() uint64 { return h.exits }
