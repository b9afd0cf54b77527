package hwthread

import (
	"fmt"
	"slices"

	"nocs/internal/sim"
	"nocs/internal/snapshot"
)

// Checkpoint support (DESIGN.md §13). A context serializes its full
// architectural state: registers, run state, priority, the hardware TDT
// translation cache (stale cached rows are an architecturally required
// behavior — §3.1 — so they must survive a checkpoint), and the per-thread
// statistics. Program bindings are recorded as an opaque program id assigned
// by the machine layer, which owns the program registry; trace track ids are
// reset on restore (traces re-base, DESIGN.md §13).

// SnapshotState writes the context's architectural state. progID identifies
// the bound program in the machine's program table (-1 = no program bound).
func (c *Context) SnapshotState(w *snapshot.W, progID int64) {
	w.U8(uint8(c.State))
	for _, v := range c.Regs.GPR {
		w.I64(v)
	}
	for _, v := range c.Regs.FPR {
		w.F64(v)
	}
	w.I64(c.Regs.PC).I64(c.Regs.Mode).I64(c.Regs.EDP).I64(c.Regs.TDT)
	w.Bool(c.Regs.FPDirty)
	w.I64(int64(c.Priority))
	w.I64(progID)

	vtids := make([]int64, 0, len(c.tdtCache))
	for v := range c.tdtCache {
		vtids = append(vtids, int64(v))
	}
	slices.Sort(vtids)
	w.Len(len(vtids))
	for _, v := range vtids {
		e := c.tdtCache[VTID(v)]
		w.I64(v).I64(int64(e.PTID)).U8(uint8(e.Perm))
	}

	w.U64(c.Starts).U64(c.Stops).U64(c.Wakeups).U64(c.Retired)
	w.I64(int64(c.LastStarted)).I64(int64(c.LastHalt))
}

// RestoreState replaces the context's architectural state with the
// checkpoint's and returns the bound program id for the machine layer to
// resolve. The TDT cache is cleared in place, so a context that never
// cached a translation still has no map unless the checkpoint lists one.
// The trace track is reset (restored runs re-base their traces).
func (c *Context) RestoreState(r *snapshot.R) (progID int64, err error) {
	c.State = State(r.U8())
	if r.Err() == nil && c.State > Waiting {
		return 0, fmt.Errorf("hwthread: ptid %d snapshot has invalid state %d", c.PTID, c.State)
	}
	for i := range c.Regs.GPR {
		c.Regs.GPR[i] = r.I64()
	}
	for i := range c.Regs.FPR {
		c.Regs.FPR[i] = r.F64()
	}
	c.Regs.PC, c.Regs.Mode, c.Regs.EDP, c.Regs.TDT = r.I64(), r.I64(), r.I64(), r.I64()
	c.Regs.FPDirty = r.Bool()
	c.Priority = int(r.I64())
	progID = r.I64()

	n := r.Len(17)
	clear(c.tdtCache)
	if n > 0 && c.tdtCache == nil {
		c.tdtCache = make(map[VTID]Entry, n)
	}
	for range n {
		v := VTID(r.I64())
		c.tdtCache[v] = Entry{PTID: PTID(r.I64()), Perm: Perm(r.U8())}
	}
	c.Starts, c.Stops, c.Wakeups, c.Retired = r.U64(), r.U64(), r.U64(), r.U64()
	c.LastStarted, c.LastHalt = sim.Cycles(r.I64()), sim.Cycles(r.I64())
	c.Track = 0
	return progID, r.Err()
}
