package machine

import (
	"fmt"
	"io"

	"nocs/internal/hwthread"
	"nocs/internal/irq"
	"nocs/internal/isa"
	"nocs/internal/monitor"
	"nocs/internal/sim"
	"nocs/internal/snapshot"
)

// This file is the full-machine checkpoint orchestration (DESIGN.md §13).
// A machine snapshot is a container of named sections: one "machine" section
// with the topology and driver-scheduled injections, one "programs" section
// with every bound program (encoded whole, so snapshots are self-contained),
// one section per core ("core0", ...), per shard subsystem ("shard0/mem",
// ...), per attached device ("dev/nic0", ...) and per attached component,
// the shard engines, and last the scheduler's "xmsgs" section with every
// remote write not yet stored.
//
// Snapshot must be taken at a quiescent point: between Run/RunUntil calls,
// with no driver-closure events pending (the engine's unclaimed-event check
// enforces this — machine-owned state is checkpointable, ad-hoc driver
// closures are not and surface as a named error). Restore replaces the
// target machine's dynamic state wholesale; the target must have been
// constructed with the same topology (cores, shards, lookahead, devices,
// fault plan on/off) and have the same IRQ vectors and native handlers
// registered, since handlers and wiring are code, not state.

// Section names within a machine snapshot container.
const (
	secMachine  = "machine"
	secPrograms = "programs"
	secXMsgs    = "xmsgs"
)

func secShard(s sim.ShardID, sub string) string { return fmt.Sprintf("shard%d/%s", s, sub) }
func secCore(i int) string                      { return fmt.Sprintf("core%d", i) }
func secDevice(name string) string              { return "dev/" + name }

// waiter ids pack (core index, ptid) into one stable integer.
func waiterID(coreIdx int, p hwthread.PTID) int64 {
	return int64(coreIdx)<<32 | int64(uint32(p))
}

// Snapshot writes a full-machine checkpoint to w.
func (m *Machine) Snapshot(w io.Writer) error {
	b := snapshot.NewBuilder()
	for s := range m.shards {
		m.shards[s].sh.BeginSnapshot()
	}

	// Topology + driver-scheduled injections.
	mw := b.Section(secMachine)
	mw.Len(len(m.cores)).Len(len(m.shards)).I64(int64(m.Lookahead()))
	for _, s := range m.coreShard {
		mw.I64(int64(s))
	}
	mw.Len(len(m.devices))
	for _, d := range m.devices {
		mw.String(d.name).I64(int64(d.shard))
	}
	mw.Len(len(m.attached))
	for _, a := range m.attached {
		mw.String(a.name).I64(int64(a.shard))
	}
	mw.Len(len(m.injects))
	for _, j := range m.injects {
		mw.I64(int64(j.s)).U8(j.kind)
		if err := m.shards[j.s].sh.WriteEvent(mw, j.h, injectName(j.kind)); err != nil {
			return err
		}
		mw.I64(j.addr).I64(j.val).I64(j.core).I64(j.ptid)
	}

	// Program table, interned while cores serialize. The section is created
	// here so its stream position is stable; its payload is filled below.
	pw := b.Section(secPrograms)
	var progs []*isa.Program
	progIdx := make(map[*isa.Program]int64)
	intern := func(p *isa.Program) (int64, error) {
		if id, ok := progIdx[p]; ok {
			return id, nil
		}
		id := int64(len(progs))
		progs = append(progs, p)
		progIdx[p] = id
		return id, nil
	}

	// Per-shard waiter-id translation for the monitor.
	wid := make(map[monitor.Waiter]int64)
	for i, c := range m.cores {
		for p := 0; p < c.Threads().Len(); p++ {
			if wt := c.MonitorWaiter(hwthread.PTID(p)); wt != nil {
				wid[wt] = waiterID(i, hwthread.PTID(p))
			}
		}
	}
	// Core-id translation for the IRQ controller.
	coreIdx := make(map[irq.CoreTarget]int64, len(m.cores))
	for i, c := range m.cores {
		coreIdx[c] = int64(i)
	}

	for i, c := range m.cores {
		if err := c.SnapshotState(b.Section(secCore(i)), intern); err != nil {
			return err
		}
	}

	pw.Len(len(progs))
	for _, p := range progs {
		words, syms, err := isa.EncodeProgram(p)
		if err != nil {
			return fmt.Errorf("machine: encoding program %q: %w", p.Name, err)
		}
		pw.String(p.Name).Len(len(words))
		for _, word := range words {
			pw.U64(word)
		}
		pw.Len(syms.Len())
		for si := 0; si < syms.Len(); si++ {
			name, _ := syms.Name(int64(si))
			pw.String(name)
		}
	}

	for s := range m.shards {
		st := &m.shards[s]
		sid := sim.ShardID(s)

		st.mem.SnapshotState(b.Section(secShard(sid, "mem")))

		if err := st.mon.SnapshotState(b.Section(secShard(sid, "monitor")), func(wt monitor.Waiter) (int64, bool) {
			id, ok := wid[wt]
			return id, ok
		}); err != nil {
			return fmt.Errorf("machine: shard %d: %w", s, err)
		}

		if err := st.irq.SnapshotState(b.Section(secShard(sid, "irq")), func(t irq.CoreTarget) (int64, bool) {
			id, ok := coreIdx[t]
			return id, ok
		}); err != nil {
			return fmt.Errorf("machine: shard %d: %w", s, err)
		}

		if err := st.inj.SnapshotState(b.Section(secShard(sid, "faults"))); err != nil {
			return err
		}
	}

	for _, d := range m.devices {
		if err := d.dev.SnapshotState(b.Section(secDevice(d.name))); err != nil {
			return fmt.Errorf("machine: device %s: %w", d.name, err)
		}
	}

	for _, a := range m.attached {
		if err := a.cs.SnapshotState(b.Section("ext/" + a.name)); err != nil {
			return fmt.Errorf("machine: component %s: %w", a.name, err)
		}
	}

	// Engines last: every component above, and the scheduler's xmsgs codec
	// for the writes queued on the engines, has claimed the live events it
	// wrote, so an unclaimed event is a driver closure — a named checkpoint
	// error, not a silent drop. The engine sections are created before
	// xmsgs, which stays the last section.
	engines := make([]*snapshot.W, len(m.shards))
	for s := range m.shards {
		engines[s] = b.Section(secShard(sim.ShardID(s), "engine"))
	}
	if err := m.sched.SnapshotState(b.Section(secXMsgs)); err != nil {
		return err
	}
	for s := range m.shards {
		if err := m.shards[s].sh.SnapshotEvents(engines[s]); err != nil {
			return fmt.Errorf("machine: shard %d: %w", s, err)
		}
	}
	_, err := b.WriteTo(w)
	return err
}

// Restore replaces the machine's dynamic state with a checkpoint read from r.
func (m *Machine) Restore(r io.Reader) error {
	s, err := snapshot.Read(r)
	if err != nil {
		return err
	}
	return m.RestoreFrom(s)
}

// RestoreFrom replaces the machine's dynamic state with the decoded
// checkpoint's. The machine must have been constructed with the same
// topology; any mismatch (or a corrupt stream) yields an error, never a
// panic, though the machine state is unspecified after a failed restore —
// a fresh machine should be built to retry. Every section is read through
// snapshot.Restore, so a section a codec leaves partly unread is an error
// naming it.
func (m *Machine) RestoreFrom(s *snapshot.Snapshot) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("machine: restore: %v", p)
		}
	}()

	// Per-shard engine state first: BeginRestore moves the clocks and wipes
	// the queues, then every component re-creates its events at the original
	// (cycle, sequence) slots.
	engines := make([]sim.EngineState, len(m.shards))
	for si := range m.shards {
		if err := s.Restore(secShard(sim.ShardID(si), "engine"), func(r *snapshot.R) (err error) {
			engines[si], err = sim.ReadEngineState(r)
			return err
		}); err != nil {
			return err
		}
	}
	for si := range m.shards {
		m.shards[si].sh.BeginRestore(engines[si].Now)
	}

	if err := s.Restore(secMachine, m.restoreTopology); err != nil {
		return err
	}

	var progs []*isa.Program
	if err := s.Restore(secPrograms, func(r *snapshot.R) error {
		progs = make([]*isa.Program, r.Len(1))
		for i := range progs {
			name := r.String()
			words := make([]uint64, r.Len(8))
			for j := range words {
				words[j] = r.U64()
			}
			syms := isa.NewSymbolTable()
			for range r.Len(1) {
				syms.Intern(r.String())
			}
			if err := r.Err(); err != nil {
				return err
			}
			p, err := isa.DecodeProgram(name, words, syms)
			if err != nil {
				return fmt.Errorf("machine: decoding program %q: %w", name, err)
			}
			progs[i] = p
		}
		return nil
	}); err != nil {
		return err
	}

	prog := func(id int64) (*isa.Program, error) {
		if id < 0 || id >= int64(len(progs)) {
			return nil, fmt.Errorf("machine: snapshot references unknown program id %d", id)
		}
		return progs[id], nil
	}
	waiter := func(id int64) (monitor.Waiter, error) {
		ci, p := int(id>>32), hwthread.PTID(uint32(id))
		if ci < 0 || ci >= len(m.cores) {
			return nil, fmt.Errorf("machine: snapshot waiter id on unknown core %d", ci)
		}
		wt := m.cores[ci].MonitorWaiter(p)
		if wt == nil {
			return nil, fmt.Errorf("machine: snapshot waiter id for unknown ptid %d on core %d", p, ci)
		}
		return wt, nil
	}
	coreOf := func(id int64) (irq.CoreTarget, error) {
		if id < 0 || id >= int64(len(m.cores)) {
			return nil, fmt.Errorf("machine: snapshot IRQ target on unknown core %d", id)
		}
		return m.cores[id], nil
	}

	for i, c := range m.cores {
		if err := s.Restore(secCore(i), func(r *snapshot.R) error { return c.RestoreState(r, prog) }); err != nil {
			return err
		}
	}
	for si := range m.shards {
		st := &m.shards[si]
		sid := sim.ShardID(si)
		for _, sec := range []struct {
			sub    string
			decode func(*snapshot.R) error
		}{
			{"mem", st.mem.RestoreState},
			{"monitor", func(r *snapshot.R) error { return st.mon.RestoreState(r, waiter) }},
			{"irq", func(r *snapshot.R) error { return st.irq.RestoreState(r, coreOf) }},
			{"faults", st.inj.RestoreState},
		} {
			if err := s.Restore(secShard(sid, sec.sub), sec.decode); err != nil {
				return err
			}
		}
	}
	for _, d := range m.devices {
		if err := s.Restore(secDevice(d.name), d.dev.RestoreState); err != nil {
			return err
		}
	}
	for _, a := range m.attached {
		if err := s.Restore("ext/"+a.name, a.cs.RestoreState); err != nil {
			return err
		}
	}

	if err := s.Restore(secXMsgs, m.sched.RestoreState); err != nil {
		return err
	}

	for si := range m.shards {
		if err := m.shards[si].sh.FinishRestore(engines[si]); err != nil {
			return err
		}
	}

	// Traces re-base: anything recorded before the restore describes the
	// replaced timeline. Core/ptid track state was already reset by the
	// component restores.
	return nil
}

// restoreTopology reads the machine section: it checks the topology against
// the live machine's and re-creates the driver-scheduled injections. The
// shards must be mid-restore.
func (m *Machine) restoreTopology(r *snapshot.R) error {
	nCores, nShards, look := r.Len(1), r.Len(1), sim.Cycles(r.I64())
	if err := r.Err(); err != nil {
		return err
	}
	if nCores != len(m.cores) || nShards != len(m.shards) || look != m.Lookahead() {
		return fmt.Errorf("machine: snapshot topology %d cores / %d shards / lookahead %d does not match live machine (%d/%d/%d)",
			nCores, nShards, look, len(m.cores), len(m.shards), m.Lookahead())
	}
	for i := range nCores {
		if got := sim.ShardID(r.I64()); r.Err() == nil && got != m.coreShard[i] {
			return fmt.Errorf("machine: snapshot places core %d on shard %d, live machine on %d", i, got, m.coreShard[i])
		}
	}
	nDev := r.Len(1)
	if r.Err() == nil && nDev != len(m.devices) {
		return fmt.Errorf("machine: snapshot has %d devices, live machine has %d", nDev, len(m.devices))
	}
	for i := range nDev {
		name, shard := r.String(), sim.ShardID(r.I64())
		if r.Err() == nil && (name != m.devices[i].name || shard != m.devices[i].shard) {
			return fmt.Errorf("machine: snapshot device %d is %s on shard %d, live machine has %s on shard %d",
				i, name, shard, m.devices[i].name, m.devices[i].shard)
		}
	}
	nAtt := r.Len(1)
	if r.Err() == nil && nAtt != len(m.attached) {
		return fmt.Errorf("machine: snapshot has %d attached components, live machine has %d", nAtt, len(m.attached))
	}
	for i := range nAtt {
		name, shard := r.String(), sim.ShardID(r.I64())
		if r.Err() == nil && (name != m.attached[i].name || shard != m.attached[i].shard) {
			return fmt.Errorf("machine: snapshot component %d is %s on shard %d, live machine has %s on shard %d",
				i, name, shard, m.attached[i].name, m.attached[i].shard)
		}
	}
	m.injects = m.injects[:0]
	for range r.Len(1) {
		j := &pendingInject{m: m, s: sim.ShardID(r.I64()), kind: r.U8()}
		if err := r.Err(); err != nil {
			return err
		}
		if int(j.s) < 0 || int(j.s) >= len(m.shards) {
			return fmt.Errorf("machine: snapshot injection on unknown shard %d", j.s)
		}
		j.h = m.shards[j.s].sh.ReadEvent(r, injectName(j.kind), j)
		j.addr, j.val, j.core, j.ptid = r.I64(), r.I64(), r.I64(), r.I64()
		if r.Err() == nil && j.kind == injectWake && (j.core < 0 || j.core >= int64(len(m.cores))) {
			return fmt.Errorf("machine: snapshot wake injection for unknown core %d", j.core)
		}
		m.injects = append(m.injects, j)
	}
	return r.Err()
}

// injectName names a driver-scheduled injection's event.
func injectName(kind uint8) string {
	if kind == injectWake {
		return "fault-wake"
	}
	return "dma"
}
