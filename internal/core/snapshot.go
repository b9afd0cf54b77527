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

	// Pending issues, one per runnable ptid that has one, in ptid order. The
	// armed ones are engine events too, and writing them claims them.
	execs := make([]readyEntry, c.rq.n)
	for i := range execs {
		execs[i] = *c.rq.at(i)
		if i < c.rq.armed {
			if _, _, ok := c.eng.Claim(execs[i].h); !ok {
				return fmt.Errorf("core %d: armed issue of ptid %d has a stale event handle", c.id, execs[i].t.PTID)
			}
		}
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
	if err := c.store.SnapshotState(w); err != nil {
		return err
	}
	c.hier.SnapshotState(w)
	return nil
}

// RestoreState replaces the core's dynamic state with the checkpoint's.
// prog resolves a machine-table program id back to the live program; the
// caller must have registered the same programs before restoring. Trace
// state re-bases: ptid tracks and open spans reset.
func (c *Core) RestoreState(r *snapshot.R, prog func(int64) (*isa.Program, error)) error {
	n := r.Len(64)
	if r.Err() == nil && n != c.threads.Len() {
		return fmt.Errorf("core %d: snapshot has %d threads, live core has %d", c.id, n, c.threads.Len())
	}
	for i := range n {
		t := c.threads.Context(hwthread.PTID(i))
		pid, err := t.RestoreState(r)
		if err != nil {
			return err
		}
		t.Prog, c.decProgs[i], c.decs[i] = nil, nil, nil
		if pid < 0 {
			continue
		}
		p, err := prog(pid)
		if err != nil {
			return fmt.Errorf("core %d: ptid %d: %w", c.id, i, err)
		}
		t.Prog, c.decProgs[i], c.decs[i] = p, p, p.Decoded()
	}

	c.rq.head, c.rq.n, c.rq.armed = 0, 0, 0
	clear(c.inQ)
	c.dispatching = false
	prev := int64(-1)
	for range r.Len(24) {
		ptid, at, seq := r.I64(), sim.Cycles(r.I64()), r.U64()
		switch {
		case r.Err() != nil:
			return r.Err()
		case ptid < 0 || int(ptid) >= c.threads.Len():
			return fmt.Errorf("core %d: %w: invalid ptid %d", c.id, ErrExecRecord, ptid)
		case ptid <= prev:
			return fmt.Errorf("core %d: %w: ptid %d after ptid %d", c.id, ErrExecRecord, ptid, prev)
		case c.threads.Context(hwthread.PTID(ptid)).State != hwthread.Runnable:
			return fmt.Errorf("core %d: %w: ptid %d is not runnable", c.id, ErrExecRecord, ptid)
		case at < c.eng.Now():
			return fmt.Errorf("core %d: %w: ptid %d issues at cycle %d, before the restored clock %d",
				c.id, ErrExecRecord, ptid, at, c.eng.Now())
		}
		prev = ptid
		c.rq.insert(readyEntry{at: at, seq: seq, t: c.threads.Context(hwthread.PTID(ptid))})
		c.inQ[ptid] = true
		c.eng.ClaimSeq(seq)
	}
	if c.rq.n > 0 {
		c.arm(0)
	}

	c.guests = ptidSet(r.I64s())
	c.halted = ptidSet(r.I64s())

	c.fatal, c.fatalPTID, c.fatalFault = nil, 0, nil
	if r.Bool() {
		c.fatalPTID = hwthread.PTID(r.I64())
		c.fatalFault = &hwthread.Fault{Cause: hwthread.ExcCause(r.I64()), Info: r.I64(), Msg: r.String()}
		c.fatal = fmt.Errorf("core %d: %w", c.id, c.fatalFault)
	}
	c.retired, c.starts = r.U64(), r.U64()

	for i := range c.trOpen {
		c.trOpen[i] = false
	}

	if err := c.pipe.RestoreState(r, c.threads.Len()); err != nil {
		return err
	}
	if err := c.store.RestoreState(r); err != nil {
		return err
	}
	return c.hier.RestoreState(r)
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
