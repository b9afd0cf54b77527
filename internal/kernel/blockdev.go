package kernel

import (
	"fmt"

	"nocs/internal/device"
	"nocs/internal/hwthread"
	"nocs/internal/sim"
)

// BlockDev is the nocs storage driver: one hardware thread that watches the
// request mailbox slots AND the SSD's completion queue — a single
// multi-address monitor replacing both the submission syscall and the
// completion interrupt of a conventional driver.
//
// Clients call through ukernel-style mailbox slots (32 bytes each at
// MailboxBase + 32*slot): status/op/arg/result, where op is device.OpRead
// or device.OpWrite and arg is the LBA. The reply status lands when the
// device completion arrives, so a blocking read costs the device time plus
// tens of cycles of driver work.
type BlockDev struct {
	MailboxBase int64
	Slots       int

	k   *Nocs
	ssd *device.SSD

	// SubmitCost and CompleteCost are the per-command driver costs
	// (SQE build + doorbell, CQE decode).
	SubmitCost   sim.Cycles
	CompleteCost sim.Cycles

	submitted int64
	harvested int64
	cidToSlot map[int64]int
	reads     uint64
	writes    uint64
	errs      uint64
}

// Mailbox slot layout (mirrors ukernel's for client compatibility).
const (
	bdSlotBytes = 32
	bdStatus    = 0
	bdOp        = 8
	bdArg       = 16
	bdRet       = 24
	bdFree      = 0
	bdPosted    = 1
	bdDone      = 2
	bdInFlight  = 3
	bdLenWords  = 8 // fixed transfer size per command
)

// NewBlockDev spawns the driver thread.
func NewBlockDev(k *Nocs, ssd *device.SSD, mailboxBase int64, slots int) (*BlockDev, error) {
	if slots < 1 {
		return nil, fmt.Errorf("kernel: blockdev needs at least one slot")
	}
	if slots > ssd.Config().Entries {
		return nil, fmt.Errorf("kernel: blockdev slots %d exceed SSD queue depth %d", slots, ssd.Config().Entries)
	}
	b := &BlockDev{
		MailboxBase: mailboxBase, Slots: slots,
		k: k, ssd: ssd,
		SubmitCost: 60, CompleteCost: 40,
		cidToSlot: make(map[int64]int),
	}
	c := k.Core()
	watch := make([]int64, 0, slots+1)
	for i := 0; i < slots; i++ {
		watch = append(watch, mailboxBase+int64(i)*bdSlotBytes+bdStatus)
	}
	watch = append(watch, ssd.Config().CQTailAddr)

	_, err := k.SpawnService("blockdev", func() []int64 { return watch },
		func(t *hwthread.Context) sim.Cycles {
			var cost sim.Cycles
			// Submit every newly posted request.
			for i := 0; i < slots; i++ {
				sb := mailboxBase + int64(i)*bdSlotBytes
				if c.ReadWord(sb+bdStatus) != bdPosted {
					continue
				}
				op := c.ReadWord(sb + bdOp)
				lba := c.ReadWord(sb + bdArg)
				c.WriteWord(sb+bdStatus, bdInFlight)
				cid := b.submitted
				b.cidToSlot[cid] = i
				b.ssd.WriteSQE(c.Mem(), cid, op, lba, bdLenWords, cid)
				b.submitted++
				cost += b.SubmitCost + c.AccessCost(b.ssd.Config().DoorbellAddr)
				switch op {
				case device.OpRead:
					b.reads++
				case device.OpWrite:
					b.writes++
				}
				doorbell := b.submitted
				at := cost
				c.Shard().After(at, "bd-doorbell", func() {
					c.WriteWord(b.ssd.Config().DoorbellAddr, doorbell)
				})
			}
			// Harvest completions; reply into the originating slot.
			for b.harvested < c.ReadWord(b.ssd.Config().CQTailAddr) {
				cid, status, _ := b.ssd.ReadCQE(b.harvested)
				b.harvested++
				cost += b.CompleteCost
				slot, ok := b.cidToSlot[cid]
				if !ok {
					b.errs++
					continue
				}
				delete(b.cidToSlot, cid)
				if status != 0 {
					b.errs++
				}
				sb := mailboxBase + int64(slot)*bdSlotBytes
				at := cost
				c.Shard().After(at, "bd-reply", func() {
					c.WriteWord(sb+bdRet, status)
					c.WriteWord(sb+bdStatus, bdDone)
				})
			}
			return cost
		})
	if err != nil {
		return nil, err
	}
	return b, nil
}

// SlotBase returns the mailbox address of slot i.
func (b *BlockDev) SlotBase(i int) int64 { return b.MailboxBase + int64(i)*bdSlotBytes }

// Stats returns (reads, writes, errors, in-flight commands).
func (b *BlockDev) Stats() (reads, writes, errs uint64, inFlight int) {
	return b.reads, b.writes, b.errs, len(b.cidToSlot)
}
