// Package diff is the differential harness: it runs one generated program
// (internal/progen) through both the optimized event-driven engine
// (internal/machine and friends) and the reference interpreter
// (internal/refmodel), then compares every architectural outcome — final
// register files, memory windows, per-ptid run/block state and statistics,
// exception/fatal results, and machine-level counters. Any difference is a
// bug in one of the two implementations.
package diff

import (
	"fmt"
	"os"

	"nocs/internal/core"
	"nocs/internal/hwthread"
	"nocs/internal/isa"
	"nocs/internal/machine"
	"nocs/internal/mem"
	"nocs/internal/progen"
	"nocs/internal/refmodel"
	"nocs/internal/sim"
	"nocs/internal/trace"
)

// Options tune one differential run.
type Options struct {
	// DropPendingWakeups enables the reference model's documented wakeup-
	// dropping mutation (DESIGN.md §9); the run must then diverge on
	// programs that exercise the monitor-before-mwait race.
	DropPendingWakeups bool
	// SwallowInjectedWakes enables the reference model's fault-swallowing
	// mutation (DESIGN.md §10): scheduled spurious-wake events are skipped
	// on the ref side only, so the faulted sweep must diverge on programs
	// whose fault schedule lands on a blocked thread.
	SwallowInjectedWakes bool
	// LIFOHandoff enables the reference model's handoff-ordering mutation
	// (DESIGN.md §14): multi-waiter monitor wakes deliver in reverse arm
	// order, so the lock-ordering sweep must diverge on programs where
	// several waiters park on one word.
	LIFOHandoff bool
}

// Result is the comparison outcome for one spec.
type Result struct {
	Spec        *progen.Spec
	Divergences []string
}

// OK reports whether both implementations agreed.
func (r *Result) OK() bool { return len(r.Divergences) == 0 }

// Repro writes the spec to a temp .asm file and returns instructions for
// replaying the failure (also see README "Reproducing differential failures").
func (r *Result) Repro() string {
	f, err := os.CreateTemp("", "nocs-diff-*.asm")
	if err != nil {
		return fmt.Sprintf("seed %d (repro dump failed: %v)", r.Spec.Seed, err)
	}
	if _, err := f.WriteString(r.Spec.Format()); err != nil {
		f.Close()
		return fmt.Sprintf("seed %d (repro dump failed: %v)", r.Spec.Seed, err)
	}
	f.Close()
	return fmt.Sprintf("seed %d; replay with: go run ./cmd/nocsasm -diff %s", r.Spec.Seed, f.Name())
}

// outcome is the architectural result of one run, shaped identically for
// both implementations.
type outcome struct {
	fatal     bool
	fatalPTID int
	fatalInfo int64

	threads []threadOut
	mem     map[int64]int64

	retired  uint64
	starts   uint64
	wakeups  uint64
	immediat uint64
}

type threadOut struct {
	state       uint8 // refmodel St* encoding
	regs        isa.RegFile
	starts      uint64
	stops       uint64
	wakeups     uint64
	retired     uint64
	lastStarted int64
	lastHalt    int64
}

// Run executes s on both sides and compares.
func Run(s *progen.Spec, opt Options) (*Result, error) {
	eng, cfg, err := runEngine(s)
	if err != nil {
		return nil, err
	}
	cfg.DropPendingWakeups = opt.DropPendingWakeups
	cfg.SwallowInjectedWakes = opt.SwallowInjectedWakes
	cfg.LIFOHandoff = opt.LIFOHandoff
	ref, err := runRef(s, cfg)
	if err != nil {
		return nil, err
	}
	return &Result{Spec: s, Divergences: compare(s, eng, ref)}, nil
}

// runEngine sets up and runs the optimized engine, returning its outcome and
// the refmodel configuration matching its effective timing parameters.
func runEngine(s *progen.Spec) (*outcome, refmodel.Config, error) {
	return runEngineHook(s, nil, true)
}

// runEngineHook is runEngine with the per-instruction invariant hook made
// optional: with invariant=false no OnExec observer is attached, so the
// engine runs its fastest batched path (the fastRun inner loop), letting the
// batch-boundary tests diff that exact configuration against the refmodel.
func runEngineHook(s *progen.Spec, tr *trace.Tracer, invariant bool) (*outcome, refmodel.Config, error) {
	m, c, cfg, err := setupEngine(s, tr)
	if err != nil {
		return nil, cfg, err
	}

	// Engine-side structural invariant, sampled during execution: pipeline
	// membership must exactly mirror the runnable set.
	var invErr error
	if invariant {
		execs := 0
		c.OnExec = func(hwthread.PTID, int64, isa.Instr, sim.Cycles) {
			execs++
			if invErr != nil || execs%64 != 0 {
				return
			}
			ctxs := c.Threads().Contexts()
			for i := range ctxs {
				ctx := &ctxs[i]
				in := c.Pipeline().Contains(int(ctx.PTID))
				want := ctx.State == hwthread.Runnable
				if in != want {
					invErr = fmt.Errorf("engine invariant: ptid %d state %v but pipeline membership %v at cycle %d",
						ctx.PTID, ctx.State, in, m.Now())
					return
				}
			}
		}
	}

	m.RunUntil(sim.Cycles(s.Deadline))
	if invErr != nil {
		return nil, cfg, invErr
	}
	return captureOutcome(s, m, c), cfg, nil
}

// setupEngine builds and seeds the engine-side machine for s without running
// it. Every driver-scheduled input (DMA writes, spurious-wake faults) goes
// through the machine's checkpointable injection APIs, so a snapshot taken at
// any point of the run restores into a fresh setupEngine machine with nothing
// left dangling — this is what lets the restore-equivalence and bisection
// harnesses rebuild a run mid-flight.
func setupEngine(s *progen.Spec, tr *trace.Tracer) (*machine.Machine, *core.Core, refmodel.Config, error) {
	opts := []machine.Option{
		machine.WithThreads(s.Threads),
		machine.WithSMTSlots(s.Slots),
	}
	if tr != nil {
		opts = append(opts, machine.WithTracer(tr))
	}
	m := machine.New(opts...)
	c := m.Core(0)

	costs := c.Costs()
	h := c.Hierarchy()
	cfg := refmodel.Config{
		Threads:      s.Threads,
		Slots:        s.Slots,
		ThreadOp:     int64(costs.ThreadOp),
		SyscallExit:  int64(costs.SyscallExit),
		IRQExit:      int64(costs.IRQExit),
		VMEntry:      int64(costs.VMEntry),
		MSRAccess:    30, // fixed microcode cost in the engine
		StartLatency: int64(c.StateStore().Config().PipelineDepth),
		LineBytes:    int64(h.L1.LineBytes),
		ColdAccess:   int64(h.L1.HitCycles + h.L2.HitCycles + h.L3.HitCycles + h.DRAMCycles),
		WarmAccess:   int64(h.L1.HitCycles),
	}

	for _, mi := range s.Mem {
		m.Mem().Write(mi.Addr, mi.Val, mem.SrcCPU)
	}
	for p := 0; p < s.Threads; p++ {
		if err := c.BindProgram(hwthread.PTID(p), s.Prog, progen.EntryLabel(p)); err != nil {
			return nil, nil, cfg, err
		}
	}
	for _, r := range s.Regs {
		c.Threads().Context(hwthread.PTID(r.PTID)).Regs.Set(r.Reg, r.Val)
	}
	for _, pr := range s.Prios {
		c.Threads().Context(hwthread.PTID(pr.PTID)).Priority = pr.Prio
	}
	// DMA events are scheduled before boot so their tie-break sequence
	// numbers precede every exec event's, matching refmodel.ScheduleDMA.
	for _, d := range s.DMA {
		m.ScheduleDMAWrite(0, sim.Cycles(d.At), d.Addr, d.Val)
	}
	// Fault events go after DMA and before boot, mirroring the refmodel's
	// ScheduleDMA-then-ScheduleFaults seq assignment, so same-cycle
	// tie-breaking agrees between the two sides.
	for _, f := range s.Faults {
		m.ScheduleSpuriousWake(0, sim.Cycles(f.At), hwthread.PTID(f.PTID))
	}
	for _, p := range s.Boot {
		if err := c.BootStart(hwthread.PTID(p)); err != nil {
			return nil, nil, cfg, err
		}
	}
	return m, c, cfg, nil
}

// captureOutcome reads the engine machine's architectural outcome at its
// current simulated time. It is pure observation of state (core.FatalInfo
// for the fatal fault), so it works identically on a straight-through
// machine and on one rebuilt from a snapshot.
func captureOutcome(s *progen.Spec, m *machine.Machine, c *core.Core) *outcome {
	out := &outcome{fatalPTID: -1, mem: make(map[int64]int64)}
	if p, f := c.FatalInfo(); f != nil {
		out.fatal = true
		out.fatalPTID = int(p)
		out.fatalInfo = f.Info
	}
	ctxs := c.Threads().Contexts()
	for i := range ctxs {
		ctx := &ctxs[i]
		var st uint8
		switch ctx.State {
		case hwthread.Disabled:
			st = refmodel.StDisabled
		case hwthread.Runnable:
			st = refmodel.StRunnable
		case hwthread.Waiting:
			st = refmodel.StWaiting
		}
		out.threads = append(out.threads, threadOut{
			state:       st,
			regs:        ctx.Regs,
			starts:      ctx.Starts,
			stops:       ctx.Stops,
			wakeups:     ctx.Wakeups,
			retired:     ctx.Retired,
			lastStarted: int64(ctx.LastStarted),
			lastHalt:    int64(ctx.LastHalt),
		})
	}
	for _, w := range s.Windows() {
		for addr := w[0]; addr < w[1]; addr += 8 {
			out.mem[addr] = m.Mem().Read(addr)
		}
	}
	out.retired = c.Retired()
	out.starts = c.Starts()
	out.wakeups, out.immediat, _ = m.Monitor().Stats()
	return out
}

// runRef sets up and runs the reference interpreter.
func runRef(s *progen.Spec, cfg refmodel.Config) (*outcome, error) {
	it, err := setupRef(s, cfg)
	if err != nil {
		return nil, err
	}
	it.Run(s.Deadline)
	if err := it.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("refmodel invariant (seed %d): %w", s.Seed, err)
	}
	return captureRef(s, it), nil
}

// setupRef builds and seeds the reference interpreter for s without running
// it, mirroring setupEngine's input order exactly (DMA before faults before
// boot) so same-cycle tie-breaking agrees between the two sides.
func setupRef(s *progen.Spec, cfg refmodel.Config) (*refmodel.Interp, error) {
	it := refmodel.New(cfg)
	for _, mi := range s.Mem {
		it.Poke(mi.Addr, mi.Val)
	}
	for p := 0; p < s.Threads; p++ {
		entry, err := s.Prog.Entry(progen.EntryLabel(p))
		if err != nil {
			return nil, err
		}
		t := it.Thread(p)
		t.Prog = s.Prog
		t.Regs.PC = entry
	}
	for _, r := range s.Regs {
		it.Thread(r.PTID).Regs.Set(r.Reg, r.Val)
	}
	for _, pr := range s.Prios {
		it.Thread(pr.PTID).Priority = pr.Prio
	}
	dma := make([]refmodel.DMAWrite, len(s.DMA))
	for i, d := range s.DMA {
		dma[i] = refmodel.DMAWrite{At: d.At, Addr: d.Addr, Val: d.Val}
	}
	it.ScheduleDMA(dma)
	faults := make([]refmodel.FaultWake, len(s.Faults))
	for i, f := range s.Faults {
		faults[i] = refmodel.FaultWake{At: f.At, PTID: f.PTID}
	}
	it.ScheduleFaults(faults)
	for _, p := range s.Boot {
		if err := it.Boot(p); err != nil {
			return nil, err
		}
	}
	return it, nil
}

// captureRef reads the reference interpreter's architectural outcome at its
// current simulated time, shaped identically to captureOutcome's.
func captureRef(s *progen.Spec, it *refmodel.Interp) *outcome {
	out := &outcome{fatalPTID: -1, mem: make(map[int64]int64)}
	if f := it.Fatal(); f != nil {
		out.fatal = true
		out.fatalPTID = f.PTID
		out.fatalInfo = f.Info
	}
	for p := 0; p < s.Threads; p++ {
		t := it.Thread(p)
		out.threads = append(out.threads, threadOut{
			state:       t.State,
			regs:        t.Regs,
			starts:      t.Starts,
			stops:       t.Stops,
			wakeups:     t.Wakeups,
			retired:     t.Retired,
			lastStarted: t.LastStarted,
			lastHalt:    t.LastHalt,
		})
	}
	for _, w := range s.Windows() {
		for addr := w[0]; addr < w[1]; addr += 8 {
			out.mem[addr] = it.Mem(addr)
		}
	}
	out.retired = it.RetiredTotal
	out.starts = it.Resumes
	out.wakeups = it.MonWakeups
	out.immediat = it.MonImmediate
	return out
}

// compare lists every field where the two outcomes differ. The engine is
// reported first in each message.
func compare(s *progen.Spec, eng, ref *outcome) []string {
	var d []string
	diff := func(format string, a ...any) { d = append(d, fmt.Sprintf(format, a...)) }

	if eng.fatal != ref.fatal || eng.fatalPTID != ref.fatalPTID || eng.fatalInfo != ref.fatalInfo {
		diff("fatal: engine (%v ptid=%d info=%d) vs ref (%v ptid=%d info=%d)",
			eng.fatal, eng.fatalPTID, eng.fatalInfo, ref.fatal, ref.fatalPTID, ref.fatalInfo)
	}
	for p := 0; p < s.Threads; p++ {
		e, r := eng.threads[p], ref.threads[p]
		if e.state != r.state {
			diff("ptid %d state: engine %d vs ref %d", p, e.state, r.state)
		}
		if e.regs != r.regs {
			for i := 0; i < int(isa.NumRegs); i++ {
				reg := isa.Reg(i)
				if ev, rv := e.regs.Get(reg), r.regs.Get(reg); ev != rv {
					diff("ptid %d reg %v: engine %d vs ref %d", p, reg, ev, rv)
				}
			}
		}
		if e.starts != r.starts || e.stops != r.stops || e.wakeups != r.wakeups || e.retired != r.retired {
			diff("ptid %d stats: engine starts=%d stops=%d wakeups=%d retired=%d vs ref starts=%d stops=%d wakeups=%d retired=%d",
				p, e.starts, e.stops, e.wakeups, e.retired, r.starts, r.stops, r.wakeups, r.retired)
		}
		if e.lastStarted != r.lastStarted || e.lastHalt != r.lastHalt {
			diff("ptid %d timing: engine lastStarted=%d lastHalt=%d vs ref lastStarted=%d lastHalt=%d",
				p, e.lastStarted, e.lastHalt, r.lastStarted, r.lastHalt)
		}
	}
	for _, w := range s.Windows() {
		for addr := w[0]; addr < w[1]; addr += 8 {
			if ev, rv := eng.mem[addr], ref.mem[addr]; ev != rv {
				diff("mem[%#x]: engine %d vs ref %d", addr, ev, rv)
			}
		}
	}
	if eng.retired != ref.retired {
		diff("total retired: engine %d vs ref %d", eng.retired, ref.retired)
	}
	if eng.starts != ref.starts {
		diff("total starts: engine %d vs ref %d", eng.starts, ref.starts)
	}
	if eng.wakeups != ref.wakeups || eng.immediat != ref.immediat {
		diff("monitor stats: engine wakeups=%d immediate=%d vs ref wakeups=%d immediate=%d",
			eng.wakeups, eng.immediat, ref.wakeups, ref.immediat)
	}
	return d
}
