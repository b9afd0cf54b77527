package core

import (
	"fmt"
	"sort"

	"nocs/internal/hwthread"
	"nocs/internal/isa"
	"nocs/internal/sim"
	"nocs/internal/snapshot"
)

// Checkpoint support (DESIGN.md §13). A core serializes every hardware
// thread context (via the hwthread codec, with program bindings translated
// to machine-table program ids), each ptid's in-flight "exec" event slot,
// the guest/halted sets, the fatal-fault record, the retirement counters,
// and its owned sub-components (pipeline occupancy, state store, cache
// hierarchy). Natives, legacy hooks, and observers are wiring re-registered
// by the restore target's driver; the predecode cache re-warms itself on
// the first decodedFor pointer miss after programs are re-bound.

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

	// In-flight exec events: one per runnable ptid that has an issue queued.
	type execRec struct {
		ptid int64
		at   sim.Cycles
		seq  uint64
	}
	var execs []execRec
	for p, h := range c.execEv {
		if h == sim.NoEvent {
			continue
		}
		at, seq, ok := c.eng.EventInfo(h)
		if !ok {
			return fmt.Errorf("core %d: ptid %d exec event handle is stale at checkpoint", c.id, p)
		}
		execs = append(execs, execRec{int64(p), at, seq})
	}
	w.Len(len(execs))
	for _, e := range execs {
		w.I64(e.ptid).I64(int64(e.at)).U64(e.seq)
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

	for i := range execs {
		p := execs[i].ptid
		if p < 0 || int(p) >= c.threads.Len() {
			return fmt.Errorf("core %d: snapshot exec event for invalid ptid %d", c.id, p)
		}
	}
	for p := range c.execEv {
		c.execEv[p] = sim.NoEvent
	}
	for _, e := range execs {
		c.execEv[e.ptid] = c.eng.AtSeq(e.at, e.seq, "exec", &c.execCBs[e.ptid])
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

// LiveHandles lists the core's queued events for the engine's claimed set.
func (c *Core) LiveHandles() []sim.Handle {
	var hs []sim.Handle
	for _, h := range c.execEv {
		if h != sim.NoEvent {
			hs = append(hs, h)
		}
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
