package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

	"nocs/internal/hwthread"
	"nocs/internal/isa"
	"nocs/internal/sim"
	"nocs/internal/snapshot"
)

// Checkpoint support (DESIGN.md §13). A core serializes every hardware
// thread context (via the hwthread codec, with program bindings translated
// to machine-table program ids), each ptid's pending issue (its ready-queue
// entry, recorded as the (cycle, sequence) key of the "exec" event it stands
// for), the guest/halted sets, the fatal-fault record, the retirement
// counters, and its owned sub-components (pipeline occupancy, state store,
// cache hierarchy). Natives, legacy hooks, and observers are wiring re-registered
// by the restore target's driver; the predecode cache re-warms itself on
// the first decodedFor pointer miss after programs are re-bound.

// ErrExecRecord reports a checkpoint whose pending-issue records a live core
// could not have written: a ptid out of range, out of order or repeated, a
// ptid that is not runnable, or an issue before the restored clock.
var ErrExecRecord = errors.New("bad exec record")

// SnapshotState writes the core's dynamic state. progID translates a bound
// program to its id in the machine's program table.
func (c *Core) SnapshotState(w *snapshot.W, progID func(*isa.Program) (int64, error)) error {
	n := c.threads.Len()
	w.Len(n)
	for i := 0; i < n; i++ {
		t := c.threads.Context(hwthread.PTID(i))
		pid := int64(-1)
		if t.Prog != nil {
			id, err := progID(t.Prog)
			if err != nil {
				return fmt.Errorf("core %d: ptid %d: %w", c.id, i, err)
			}
			pid = id
		}
		t.SnapshotState(w, pid)
	}

	// Pending issues, one per runnable ptid that has one, in ptid order.
	execs := make([]readyEntry, c.rq.n)
	for i := range execs {
		execs[i] = *c.rq.at(i)
	}
	slices.SortFunc(execs, func(a, b readyEntry) int { return cmp.Compare(a.t.PTID, b.t.PTID) })
	w.Len(len(execs))
	for _, e := range execs {
		w.I64(int64(e.t.PTID)).I64(int64(e.at)).U64(e.seq)
	}

	w.I64s(sortedPTIDs(c.guests))
	w.I64s(sortedPTIDs(c.halted))

	w.Bool(c.fatalFault != nil)
	if c.fatalFault != nil {
		w.I64(int64(c.fatalPTID))
		w.I64(int64(c.fatalFault.Cause)).I64(c.fatalFault.Info)
		w.String(c.fatalFault.Msg)
	}
	w.U64(c.retired).U64(c.starts)

	c.pipe.SnapshotState(w)
	c.store.SnapshotState(w)
	c.hier.SnapshotState(w)
	return nil
}

// RestoreState replaces the core's dynamic state with the checkpoint's.
// prog resolves a machine-table program id back to the live program; the
// caller must have registered the same programs before restoring. Trace
// state re-bases: ptid tracks and open spans reset.
func (c *Core) RestoreState(r *snapshot.R, prog func(int64) (*isa.Program, error)) error {
	n := r.Len(64)
	if n != c.threads.Len() {
		if err := r.Err(); err != nil {
			return err
		}
		return fmt.Errorf("core %d: snapshot has %d threads, live core has %d", c.id, n, c.threads.Len())
	}
	progIDs := make([]int64, n)
	for i := 0; i < n; i++ {
		t := c.threads.Context(hwthread.PTID(i))
		pid, err := t.RestoreState(r)
		if err != nil {
			return err
		}
		progIDs[i] = pid
	}

	ne := r.Len(24)
	type execRec struct {
		ptid int64
		at   sim.Cycles
		seq  uint64
	}
	execs := make([]execRec, ne)
	for i := range execs {
		execs[i] = execRec{r.I64(), sim.Cycles(r.I64()), r.U64()}
	}
	guests, halted := r.I64s(), r.I64s()

	var fatalPTID int64
	var fatalCause, fatalInfo int64
	var fatalMsg string
	hasFatal := r.Bool()
	if hasFatal {
		fatalPTID = r.I64()
		fatalCause, fatalInfo = r.I64(), r.I64()
		fatalMsg = r.String()
	}
	retired, starts := r.U64(), r.U64()
	if err := r.Err(); err != nil {
		return err
	}

	// Re-bind programs before touching anything else so a missing program
	// fails the restore with every context still consistent.
	for i, pid := range progIDs {
		t := c.threads.Context(hwthread.PTID(i))
		if pid < 0 {
			t.Prog = nil
			c.decProgs[i] = nil
			c.decs[i] = nil
			continue
		}
		p, err := prog(pid)
		if err != nil {
			return fmt.Errorf("core %d: ptid %d: %w", c.id, i, err)
		}
		t.Prog = p
		c.decProgs[i] = p
		c.decs[i] = p.Decoded()
	}

	for i, e := range execs {
		switch {
		case e.ptid < 0 || int(e.ptid) >= c.threads.Len():
			return fmt.Errorf("core %d: %w: invalid ptid %d", c.id, ErrExecRecord, e.ptid)
		case i > 0 && e.ptid <= execs[i-1].ptid:
			return fmt.Errorf("core %d: %w: ptid %d after ptid %d", c.id, ErrExecRecord, e.ptid, execs[i-1].ptid)
		case c.threads.Context(hwthread.PTID(e.ptid)).State != hwthread.Runnable:
			return fmt.Errorf("core %d: %w: ptid %d is not runnable", c.id, ErrExecRecord, e.ptid)
		case e.at < c.eng.Now():
			return fmt.Errorf("core %d: %w: ptid %d issues at cycle %d, before the restored clock %d",
				c.id, ErrExecRecord, e.ptid, e.at, c.eng.Now())
		}
	}
	c.rq.head, c.rq.n, c.rq.armed = 0, 0, 0
	clear(c.inQ)
	c.dispatching = false
	for _, e := range execs {
		c.rq.insert(readyEntry{at: e.at, seq: e.seq, t: c.threads.Context(hwthread.PTID(e.ptid))})
		c.inQ[e.ptid] = true
		c.eng.ClaimSeq(e.seq)
	}
	if c.rq.n > 0 {
		c.arm(0)
	}

	c.guests = ptidSet(guests)
	c.halted = ptidSet(halted)

	c.fatal, c.fatalPTID, c.fatalFault = nil, 0, nil
	if hasFatal {
		f := &hwthread.Fault{Cause: hwthread.ExcCause(fatalCause), Info: fatalInfo, Msg: fatalMsg}
		c.fatalPTID = hwthread.PTID(fatalPTID)
		c.fatalFault = f
		c.fatal = fmt.Errorf("core %d: %w", c.id, f)
	}
	c.retired, c.starts = retired, starts

	for i := range c.trOpen {
		c.trOpen[i] = false
	}

	if err := c.pipe.RestoreState(r); err != nil {
		return err
	}
	if err := c.store.RestoreState(r); err != nil {
		return err
	}
	return c.hier.RestoreState(r)
}

// LiveHandles lists the core's queued events — its armed ready-queue
// entries — for the engine's claimed set.
func (c *Core) LiveHandles() []sim.Handle {
	hs := make([]sim.Handle, c.rq.armed)
	for i := range hs {
		hs[i] = c.rq.at(i).h
	}
	return hs
}

func sortedPTIDs(m map[hwthread.PTID]bool) []int64 {
	out := make([]int64, 0, len(m))
	for p := range m {
		out = append(out, int64(p))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func ptidSet(ids []int64) map[hwthread.PTID]bool {
	m := make(map[hwthread.PTID]bool, len(ids))
	for _, p := range ids {
		m[hwthread.PTID(p)] = true
	}
	return m
}
