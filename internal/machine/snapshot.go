package machine

import (
	"fmt"
	"io"

	"nocs/internal/hwthread"
	"nocs/internal/irq"
	"nocs/internal/isa"
	"nocs/internal/mem"
	"nocs/internal/monitor"
	"nocs/internal/sim"
	"nocs/internal/snapshot"
)

// This file is the full-machine checkpoint orchestration (DESIGN.md §13).
// A machine snapshot is a container of named sections: one "machine" section
// with the topology and driver-scheduled injections, one "programs" section
// with every bound program (encoded whole, so snapshots are self-contained),
// one "xmsgs" section with in-flight cross-shard messages, and then one
// section per shard subsystem ("shard0/engine", "shard0/mem", ...), per core
// ("core0", ...), and per attached device ("dev/nic0", ...).
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
	if err := m.SnapshotTo(b); err != nil {
		return err
	}
	_, err := b.WriteTo(w)
	return err
}

// SnapshotTo appends the machine's sections to an externally owned builder,
// so drivers can compose machine state with their own sections (workload
// cursors, experiment progress) in one container.
func (m *Machine) SnapshotTo(b *snapshot.Builder) error {
	for s := range m.shards {
		m.shards[s].sh.BeginSnapshot()
	}

	// Topology + driver-scheduled injections.
	mw := b.Section(secMachine)
	mw.Len(len(m.cores)).Len(len(m.shards)).I64(int64(m.look))
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
		at, seq, ok := m.shards[j.s].sh.Claim(j.h)
		if !ok {
			return fmt.Errorf("machine: scheduled injection has a stale event handle")
		}
		mw.I64(int64(j.s)).U8(j.kind).I64(int64(at)).U64(seq)
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

		monW := b.Section(secShard(sid, "monitor"))
		if err := st.mon.SnapshotState(monW, func(wt monitor.Waiter) (int64, bool) {
			id, ok := wid[wt]
			return id, ok
		}); err != nil {
			return fmt.Errorf("machine: shard %d: %w", s, err)
		}
		pend := st.mon.PendingInjections()
		monW.Len(len(pend))
		for _, p := range pend {
			at, seq, ok := st.sh.Claim(p.Handle)
			if !ok {
				return fmt.Errorf("machine: shard %d: pending monitor injection has a stale event handle", s)
			}
			monW.I64(int64(at)).U64(seq).Bool(p.Spurious)
			if p.Spurious {
				id, ok := wid[p.Waiter]
				if !ok {
					return fmt.Errorf("machine: shard %d: pending spurious wake for unknown waiter %T", s, p.Waiter)
				}
				monW.I64(id)
			} else {
				monW.Len(len(p.Batch))
				for _, wt := range p.Batch {
					id, ok := wid[wt]
					if !ok {
						return fmt.Errorf("machine: shard %d: pending coalesced wake for unknown waiter %T", s, wt)
					}
					monW.I64(id)
				}
				monW.I64(p.Addr).I64(p.Val).U8(uint8(p.Src))
			}
		}

		if err := st.irq.SnapshotState(b.Section(secShard(sid, "irq")), func(t irq.CoreTarget) (int64, bool) {
			id, ok := coreIdx[t]
			return id, ok
		}); err != nil {
			return fmt.Errorf("machine: shard %d: %w", s, err)
		}

		st.inj.SnapshotState(b.Section(secShard(sid, "faults")))
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

	// Engines last: every component above has claimed the live events it
	// wrote, so an unclaimed event is a driver closure — a named checkpoint
	// error, not a silent drop.
	for s := range m.shards {
		sid := sim.ShardID(s)
		if err := m.shards[s].sh.SnapshotEvents(b.Section(secShard(sid, "engine"))); err != nil {
			return fmt.Errorf("machine: shard %d: %w", s, err)
		}
	}

	// Cross-shard in-flight messages + send counters. The machine's only
	// checkpointable message body is the RemoteWrite payload.
	xw := b.Section(secXMsgs)
	ss, ok := m.sched.(sim.SchedulerSnapshotter)
	if !ok {
		return fmt.Errorf("machine: scheduler %T does not support checkpointing", m.sched)
	}
	seqs := ss.SendSeqs()
	xw.Len(len(seqs))
	for _, q := range seqs {
		xw.U64(q)
	}
	msgs := ss.SnapshotXMsgs()
	xw.Len(len(msgs))
	for _, x := range msgs {
		rw, isWrite := x.CB.(*remoteWrite)
		if !isWrite {
			return fmt.Errorf("machine: in-flight cross-shard message %q is not checkpointable", x.Name)
		}
		xw.I64(int64(x.At)).I64(int64(x.Src)).U64(x.Seq).I64(int64(x.To))
		xw.I64(rw.addr).I64(rw.val)
	}
	return nil
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
// a fresh machine should be built to retry.
func (m *Machine) RestoreFrom(s *snapshot.Snapshot) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("machine: restore: %v", p)
		}
	}()

	mr, err := s.Section(secMachine)
	if err != nil {
		return err
	}
	nCores, nShards, look := mr.Len(1), mr.Len(1), sim.Cycles(mr.I64())
	if err := mr.Err(); err != nil {
		return err
	}
	if nCores != len(m.cores) || nShards != len(m.shards) || look != m.look {
		return fmt.Errorf("machine: snapshot topology %d cores / %d shards / lookahead %d does not match live machine (%d/%d/%d)",
			nCores, nShards, look, len(m.cores), len(m.shards), m.look)
	}
	for i := 0; i < nCores; i++ {
		if got := sim.ShardID(mr.I64()); mr.Err() == nil && got != m.coreShard[i] {
			return fmt.Errorf("machine: snapshot places core %d on shard %d, live machine on %d", i, got, m.coreShard[i])
		}
	}
	nDev := mr.Len(1)
	if mr.Err() == nil && nDev != len(m.devices) {
		return fmt.Errorf("machine: snapshot has %d devices, live machine has %d", nDev, len(m.devices))
	}
	for i := 0; i < nDev; i++ {
		name, shard := mr.String(), sim.ShardID(mr.I64())
		if mr.Err() != nil {
			break
		}
		if name != m.devices[i].name || shard != m.devices[i].shard {
			return fmt.Errorf("machine: snapshot device %d is %s on shard %d, live machine has %s on shard %d",
				i, name, shard, m.devices[i].name, m.devices[i].shard)
		}
	}
	nAtt := mr.Len(1)
	if mr.Err() == nil && nAtt != len(m.attached) {
		return fmt.Errorf("machine: snapshot has %d attached components, live machine has %d", nAtt, len(m.attached))
	}
	for i := 0; i < nAtt; i++ {
		name, shard := mr.String(), sim.ShardID(mr.I64())
		if mr.Err() != nil {
			break
		}
		if name != m.attached[i].name || shard != m.attached[i].shard {
			return fmt.Errorf("machine: snapshot component %d is %s on shard %d, live machine has %s on shard %d",
				i, name, shard, m.attached[i].name, m.attached[i].shard)
		}
	}
	type injRec struct {
		s    sim.ShardID
		kind uint8
		at   sim.Cycles
		seq  uint64
		addr int64
		val  int64
		core int64
		ptid int64
	}
	injs := make([]injRec, mr.Len(1))
	for i := range injs {
		injs[i] = injRec{
			s: sim.ShardID(mr.I64()), kind: mr.U8(),
			at: sim.Cycles(mr.I64()), seq: mr.U64(),
			addr: mr.I64(), val: mr.I64(), core: mr.I64(), ptid: mr.I64(),
		}
	}
	if err := mr.Err(); err != nil {
		return err
	}

	// Program table.
	pr, err := s.Section(secPrograms)
	if err != nil {
		return err
	}
	nProgs := pr.Len(1)
	progs := make([]*isa.Program, nProgs)
	for i := 0; i < nProgs; i++ {
		name := pr.String()
		words := make([]uint64, pr.Len(8))
		for j := range words {
			words[j] = pr.U64()
		}
		syms := isa.NewSymbolTable()
		nSyms := pr.Len(1)
		for j := 0; j < nSyms; j++ {
			syms.Intern(pr.String())
		}
		if err := pr.Err(); err != nil {
			return err
		}
		p, err := isa.DecodeProgram(name, words, syms)
		if err != nil {
			return fmt.Errorf("machine: decoding program %q: %w", name, err)
		}
		progs[i] = p
	}

	// Per-shard engine state first: BeginRestore moves the clocks and wipes
	// the queues, then every component re-creates its events at the original
	// (cycle, sequence) slots.
	engines := make([]sim.EngineState, len(m.shards))
	for si := range m.shards {
		er, err := s.Section(secShard(sim.ShardID(si), "engine"))
		if err != nil {
			return err
		}
		if engines[si], err = sim.ReadEngineState(er); err != nil {
			return err
		}
	}

	ss, ok := m.sched.(sim.SchedulerSnapshotter)
	if !ok {
		return fmt.Errorf("machine: scheduler %T does not support checkpointing", m.sched)
	}
	ss.ClearXMsgs()
	for si := range m.shards {
		m.shards[si].sh.BeginRestore(engines[si].Now)
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
		cr, err := s.Section(secCore(i))
		if err != nil {
			return err
		}
		if err := c.RestoreState(cr, prog); err != nil {
			return err
		}
	}

	for si := range m.shards {
		st := &m.shards[si]
		sid := sim.ShardID(si)

		memR, err := s.Section(secShard(sid, "mem"))
		if err != nil {
			return err
		}
		if err := st.mem.RestoreState(memR); err != nil {
			return err
		}

		monR, err := s.Section(secShard(sid, "monitor"))
		if err != nil {
			return err
		}
		if err := st.mon.RestoreState(monR, waiter); err != nil {
			return err
		}
		nPend := monR.Len(17)
		for i := 0; i < nPend; i++ {
			at, seq := sim.Cycles(monR.I64()), monR.U64()
			if monR.Bool() {
				wt, werr := waiter(monR.I64())
				if werr != nil {
					return werr
				}
				if err := monR.Err(); err != nil {
					return err
				}
				st.mon.RestoreSpuriousInjection(wt, func(cb sim.Callback) sim.Handle {
					return st.sh.AtSeq(at, seq, monitor.EvSpuriousWake, cb)
				})
				continue
			}
			batch := make([]monitor.Waiter, monR.Len(8))
			for j := range batch {
				wt, werr := waiter(monR.I64())
				if werr != nil {
					return werr
				}
				batch[j] = wt
			}
			addr, val, src := monR.I64(), monR.I64(), mem.WriteSource(monR.U8())
			if err := monR.Err(); err != nil {
				return err
			}
			st.mon.RestoreCoalescedInjection(batch, addr, val, src, func(cb sim.Callback) sim.Handle {
				return st.sh.AtSeq(at, seq, monitor.EvCoalescedWake, cb)
			})
		}
		if err := monR.Err(); err != nil {
			return err
		}

		irqR, err := s.Section(secShard(sid, "irq"))
		if err != nil {
			return err
		}
		if err := st.irq.RestoreState(irqR, coreOf); err != nil {
			return err
		}

		fltR, err := s.Section(secShard(sid, "faults"))
		if err != nil {
			return err
		}
		mismatch, ferr := st.inj.RestoreState(fltR)
		if ferr != nil {
			return ferr
		}
		if mismatch {
			return fmt.Errorf("machine: snapshot fault plan on/off does not match live machine on shard %d (arm the same WithFaultPlan)", si)
		}
	}

	for _, d := range m.devices {
		dr, err := s.Section(secDevice(d.name))
		if err != nil {
			return err
		}
		if err := d.dev.RestoreState(dr); err != nil {
			return fmt.Errorf("machine: device %s: %w", d.name, err)
		}
	}

	for _, a := range m.attached {
		ar, err := s.Section("ext/" + a.name)
		if err != nil {
			return err
		}
		if err := a.cs.RestoreState(ar); err != nil {
			return fmt.Errorf("machine: component %s: %w", a.name, err)
		}
	}

	m.injects = m.injects[:0]
	for _, rec := range injs {
		if int(rec.s) < 0 || int(rec.s) >= len(m.shards) {
			return fmt.Errorf("machine: snapshot injection on unknown shard %d", rec.s)
		}
		j := &pendingInject{
			m: m, s: rec.s, kind: rec.kind,
			addr: rec.addr, val: rec.val, core: rec.core, ptid: rec.ptid,
		}
		name := "dma"
		if rec.kind == injectWake {
			name = "fault-wake"
			if rec.core < 0 || rec.core >= int64(len(m.cores)) {
				return fmt.Errorf("machine: snapshot wake injection for unknown core %d", rec.core)
			}
		}
		j.h = m.shards[rec.s].sh.AtSeq(rec.at, rec.seq, name, j)
		m.injects = append(m.injects, j)
	}

	for si := range m.shards {
		if err := m.shards[si].sh.FinishRestore(engines[si]); err != nil {
			return err
		}
	}

	xr, err := s.Section(secXMsgs)
	if err != nil {
		return err
	}
	seqs := make([]uint64, xr.Len(8))
	for i := range seqs {
		seqs[i] = xr.U64()
	}
	nMsg := xr.Len(42)
	for i := 0; i < nMsg; i++ {
		at, src, seq := sim.Cycles(xr.I64()), sim.ShardID(xr.I64()), xr.U64()
		to := sim.ShardID(xr.I64())
		addr, val := xr.I64(), xr.I64()
		if err := xr.Err(); err != nil {
			return err
		}
		if int(to) < 0 || int(to) >= len(m.shards) {
			return fmt.Errorf("machine: snapshot cross-shard message to unknown shard %d", to)
		}
		ss.RestoreXMsg(sim.XMsgRec{
			At: at, Src: src, Seq: seq, To: to, Name: "xwrite",
			CB: &remoteWrite{mem: m.shards[to].mem, addr: addr, val: val},
		})
	}
	if err := xr.Err(); err != nil {
		return err
	}
	if err := ss.SetSendSeqs(seqs); err != nil {
		return err
	}

	// Traces re-base: anything recorded before the restore describes the
	// replaced timeline. Core/ptid track state was already reset by the
	// component restores.
	return nil
}
