// Package fs implements a file system as a microkernel process — the §2
// design the paper cites as "File systems as processes" [54] — running on a
// dedicated hardware thread.
//
// The service is a two-level composition: applications call the FS through
// a ukernel-style mailbox; for block I/O the FS is itself a *client* of the
// kernel.BlockDev driver thread, posting into the driver's mailbox and
// waking on its reply. The whole chain
//
//	app ptid → FS ptid → driver ptid → SSD → driver ptid → FS ptid → app ptid
//
// is monitor/mwait wakes end to end: no syscalls, no scheduler, no
// interrupts. The FS thread watches its own request slots AND the driver's
// reply slot with one multi-address monitor.
//
// The file model is deliberately small (fixed one-block files, a flat name
// table) — the point is the service composition and its timing, not POSIX.
package fs

import (
	"fmt"

	"nocs/internal/device"
	"nocs/internal/hwthread"
	"nocs/internal/kernel"
	"nocs/internal/sim"
)

// FS operation codes (the mailbox `op` word).
const (
	// OpCreate allocates a file for the name token in arg; returns the fid.
	OpCreate = 1
	// OpWrite writes the file's block for fid in arg; returns 0.
	OpWrite = 2
	// OpRead reads the file's block for fid in arg; returns 0.
	OpRead = 3
	// OpStat returns the file's LBA for fid in arg (metadata only, no I/O).
	OpStat = 4
)

// Mailbox slot layout (identical to ukernel's, so ClientCallSource works).
const (
	slotBytes  = 32
	slotStatus = 0
	slotOp     = 8
	slotArg    = 16
	slotRet    = 24

	statusFree   = 0
	statusPosted = 1
	statusDone   = 2
	statusBusy   = 3
)

type inode struct {
	name int64
	lba  int64
}

// FS is the file-system service.
type FS struct {
	MailboxBase int64
	Slots       int

	k  *kernel.Nocs
	bd *kernel.BlockDev

	// MetaCost is the in-memory metadata work per operation (default 250,
	// a hash-table lookup plus bookkeeping).
	MetaCost sim.Cycles

	files   []inode
	byName  map[int64]int64 // name token -> fid
	nextLBA int64

	// Single outstanding block op (the driver slot the FS uses is slot 0
	// of the driver's mailbox).
	pendingSlot int // FS slot awaiting the driver; -1 when idle

	creates, writes, reads, stats, errs uint64
}

// New spawns the FS service thread. It uses slot 0 of the driver's mailbox
// for its own block I/O.
func New(k *kernel.Nocs, bd *kernel.BlockDev, mailboxBase int64, slots int) (*FS, error) {
	if slots < 1 {
		return nil, fmt.Errorf("fs: need at least one slot")
	}
	f := &FS{
		MailboxBase: mailboxBase, Slots: slots,
		k: k, bd: bd, MetaCost: 250,
		byName:      make(map[int64]int64),
		pendingSlot: -1,
	}
	watch := make([]int64, 0, slots+1)
	for i := 0; i < slots; i++ {
		watch = append(watch, mailboxBase+int64(i)*slotBytes+slotStatus)
	}
	watch = append(watch, bd.SlotBase(0)+slotStatus)

	_, err := k.SpawnService("fs", func() []int64 { return watch },
		func(t *hwthread.Context) sim.Cycles {
			var cost sim.Cycles
			cost += f.harvestDriver()
			cost += f.serveRequests()
			return cost
		})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// harvestDriver completes an outstanding block op if the driver replied.
func (f *FS) harvestDriver() sim.Cycles {
	if f.pendingSlot < 0 {
		return 0
	}
	c := f.k.Core()
	bdSlot := f.bd.SlotBase(0)
	if c.ReadWord(bdSlot+slotStatus) != statusDone {
		return 0
	}
	status := c.ReadWord(bdSlot + slotRet)
	c.WriteWord(bdSlot+slotStatus, statusFree)
	appSlot := f.MailboxBase + int64(f.pendingSlot)*slotBytes
	f.pendingSlot = -1
	cost := f.MetaCost / 2
	ret := status // 0 = ok
	if status != 0 {
		f.errs++
		ret = -2
	}
	c.Shard().After(cost, "fs-reply", func() {
		c.WriteWord(appSlot+slotRet, ret)
		c.WriteWord(appSlot+slotStatus, statusDone)
	})
	return cost
}

// serveRequests handles posted application requests. Block operations are
// forwarded to the driver (one at a time); metadata operations complete
// immediately.
func (f *FS) serveRequests() sim.Cycles {
	c := f.k.Core()
	var cost sim.Cycles
	for i := 0; i < f.Slots; i++ {
		sb := f.MailboxBase + int64(i)*slotBytes
		if c.ReadWord(sb+slotStatus) != statusPosted {
			continue
		}
		op := c.ReadWord(sb + slotOp)
		arg := c.ReadWord(sb + slotArg)
		switch op {
		case OpCreate:
			c.WriteWord(sb+slotStatus, statusBusy)
			cost += f.MetaCost
			fid, ok := f.byName[arg]
			if !ok {
				fid = int64(len(f.files))
				f.files = append(f.files, inode{name: arg, lba: f.nextLBA})
				f.byName[arg] = fid
				f.nextLBA++
			}
			f.creates++
			f.reply(sb, cost, fid)

		case OpStat:
			c.WriteWord(sb+slotStatus, statusBusy)
			cost += f.MetaCost
			if arg < 0 || arg >= int64(len(f.files)) {
				f.errs++
				f.reply(sb, cost, -1)
				break
			}
			f.stats++
			f.reply(sb, cost, f.files[arg].lba)

		case OpWrite, OpRead:
			if f.pendingSlot >= 0 {
				// Driver busy with our single outstanding op: leave the
				// request Posted; the driver's completion wake re-scans.
				continue
			}
			if arg < 0 || arg >= int64(len(f.files)) {
				c.WriteWord(sb+slotStatus, statusBusy)
				cost += f.MetaCost
				f.errs++
				f.reply(sb, cost, -1)
				break
			}
			c.WriteWord(sb+slotStatus, statusBusy)
			cost += f.MetaCost
			devOp := int64(device.OpRead)
			if op == OpWrite {
				devOp = device.OpWrite
				f.writes++
			} else {
				f.reads++
			}
			f.pendingSlot = i
			lba := f.files[arg].lba
			bdSlot := f.bd.SlotBase(0)
			at := cost
			c.Shard().After(at, "fs-to-driver", func() {
				c.WriteWord(bdSlot+slotOp, devOp)
				c.WriteWord(bdSlot+slotArg, lba)
				c.WriteWord(bdSlot+slotStatus, statusPosted)
			})

		default:
			c.WriteWord(sb+slotStatus, statusBusy)
			cost += f.MetaCost
			f.errs++
			f.reply(sb, cost, -1)
		}
	}
	return cost
}

// reply schedules a Done write into an app slot after `at` cycles.
func (f *FS) reply(sb int64, at sim.Cycles, ret int64) {
	c := f.k.Core()
	c.Shard().After(at, "fs-reply", func() {
		c.WriteWord(sb+slotRet, ret)
		c.WriteWord(sb+slotStatus, statusDone)
	})
}

// SlotBase returns the mailbox address of slot i.
func (f *FS) SlotBase(i int) int64 { return f.MailboxBase + int64(i)*slotBytes }

// SetupClientRegs points a client's r10 at its slot (use with
// ukernel.ClientCallSource: op in r2, arg in r3, result in r1).
func (f *FS) SetupClientRegs(t *hwthread.Context, slot int) {
	t.Regs.GPR[10] = f.SlotBase(slot)
}

// Stats returns operation counts.
func (f *FS) Stats() (creates, writes, reads, stats, errs uint64) {
	return f.creates, f.writes, f.reads, f.stats, f.errs
}
