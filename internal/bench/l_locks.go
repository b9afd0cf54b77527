package bench

import (
	"fmt"
	"strings"
	"time"

	"nocs/internal/asm"
	"nocs/internal/core"
	"nocs/internal/hwthread"
	"nocs/internal/kernel"
	"nocs/internal/machine"
	"nocs/internal/metrics"
	"nocs/internal/sim"
	nsync "nocs/internal/sync"
)

// L1 — the lock-contention experiment (DESIGN.md §14). Every internal/sync
// primitive×flavor cell runs a contended critical-section loop on one core,
// swept across ptid counts (1 up to the paper's thousands-of-hardware-threads
// regime for the parking flavors), short vs long critical sections, and SMT
// slot counts. Measurement natives timestamp the acquire path, yielding
// acquire-latency p50/p99, release→acquire handoff cycles, and fairness
// (max starvation and per-ptid acquisition spread) per cell. A final
// shard-count sweep runs per-core independent locks under 1, 2, and 4 event
// shards and requires byte-identical merged recorders.

func init() {
	Register(&Experiment{
		ID:    "L1",
		Suite: SuiteSystem,
		Title: "lock contention: nocs parking vs legacy spin and syscall paths",
		Claim: "monitor/mwait parking keeps handoff near the release store; spin and trap paths pay for contention twice",
		Run: func(cfg RunConfig) (*Result, error) {
			return runLocks(defaultLockConfig(cfg.Quick))
		},
	})
}

// Memory layout of one lock cell. In the shard sweep, core i's windows are
// offset by i*l1CoreStride so cells never interact across cores regardless
// of how cores map to shards (and thus to shared memories).
const (
	l1LockBase   = 0x10000 // primitive words (MCS at 1024 ptids needs ~16KB)
	l1DataBase   = 0x20000 // shared counter for the mutual-exclusion check
	l1DescBase   = 0x6000  // exception descriptors for the futex/nocs cell
	l1CoreStride = 0x1000
)

// Measurement natives: zero-cost probes the lock programs call around the
// acquire/release emissions.
const (
	l1Enter    = "l1.enter"
	l1Acquired = "l1.acquired"
	l1Release  = "l1.release"
)

// lockShape selects the skeleton a cell's program is built from.
type lockShape int

const (
	shapeLock    lockShape = iota // acquire; bump counter; [hold]; release
	shapeCond                     // 1 signaler, n-1 waiters; wake latency
	shapeBarrier                  // n threads × rounds; barrier wait latency
)

// lockCell is one primitive×flavor configuration under measurement.
type lockCell struct {
	Name     string
	Shape    lockShape
	Kind     nsync.Kind
	Flavor   nsync.Flavor
	UseFutex bool
}

// lockCells spans every primitive family in both flavors. The mutex appears
// twice per flavor: the pure-ISA form (mwait-park / spin) as "mutex", and
// the kernel-parking form as "futex" (descriptor syscalls on nocs, trap
// natives on legacy) — the cell pair the paper's blocking-path argument is
// about.
var lockCells = []lockCell{
	{"tas/nocs", shapeLock, nsync.TAS, nsync.Nocs, false},
	{"tas/legacy", shapeLock, nsync.TAS, nsync.Legacy, false},
	{"ttas/nocs", shapeLock, nsync.TTAS, nsync.Nocs, false},
	{"ttas/legacy", shapeLock, nsync.TTAS, nsync.Legacy, false},
	{"mcs/nocs", shapeLock, nsync.MCS, nsync.Nocs, false},
	{"mcs/legacy", shapeLock, nsync.MCS, nsync.Legacy, false},
	{"mutex/nocs", shapeLock, nsync.Mutex, nsync.Nocs, false},
	{"mutex/legacy", shapeLock, nsync.Mutex, nsync.Legacy, false},
	{"futex/nocs", shapeLock, nsync.Mutex, nsync.Nocs, true},
	{"futex/legacy", shapeLock, nsync.Mutex, nsync.Legacy, true},
	{"cond/nocs", shapeCond, nsync.Cond, nsync.Nocs, false},
	{"cond/legacy", shapeCond, nsync.Cond, nsync.Legacy, false},
	{"barrier/nocs", shapeBarrier, nsync.Barrier, nsync.Nocs, false},
	{"barrier/legacy", shapeBarrier, nsync.Barrier, nsync.Legacy, false},
}

// lockConfig sizes the lock-contention experiment.
type lockConfig struct {
	// Ptids are the contention sweep points for the lock-shaped cells
	// (default 1, 2, 8, 32, 128).
	Ptids []int
	// TotalAcq is the target total acquisitions per row, divided across
	// ptids (default 256).
	TotalAcq int
	// HoldIters sizes the long-hold critical section's delay loop
	// (default 200).
	HoldIters int
	// Extreme adds a park-only row at this many ptids for mcs/nocs and
	// mutex/nocs — the thousands-of-hardware-threads regime (default 1024;
	// 0 disables).
	Extreme int
	// Deadline bounds each row's simulated run. Event-driven idle skip
	// makes slack free once every worker halts (default 100M cycles).
	Deadline sim.Cycles
}

// defaultLockConfig returns the standard L1 sizing, or a CI-sized one when
// quick is set.
func defaultLockConfig(quick bool) lockConfig {
	lc := lockConfig{
		Ptids:     []int{1, 2, 8, 32, 128},
		TotalAcq:  256,
		HoldIters: 200,
		Extreme:   1024,
		Deadline:  100_000_000,
	}
	if quick {
		lc.Ptids = []int{1, 8}
		lc.TotalAcq = 64
		lc.HoldIters = 80
		lc.Extreme = 0
		lc.Deadline = 20_000_000
	}
	return lc
}

// midPtids picks the contention point used for the long-hold, SMT, and
// cond/barrier rows: 8 when swept, else the largest sweep point.
func (lc *lockConfig) midPtids() int {
	best := lc.Ptids[0]
	for _, p := range lc.Ptids {
		if p == 8 {
			return 8
		}
		if p > best {
			best = p
		}
	}
	if best > 8 {
		return 8
	}
	return best
}

// lockRecorder accumulates the measurement natives' observations for one
// core's cell instance.
type lockRecorder struct {
	enter   []sim.Cycles // per-ptid acquire-entry timestamp
	perPtid []uint64     // per-ptid acquisitions (fairness spread)
	acq     *metrics.Histogram
	handoff *metrics.Histogram
	lastRel sim.Cycles
	haveRel bool
	// keepRel leaves the release timestamp armed across acquisitions, so a
	// broadcast (cond signal) yields one handoff sample per woken waiter.
	keepRel bool
	doneAt  sim.Cycles
}

func newLockRecorder(ptids int, keepRel bool) *lockRecorder {
	return &lockRecorder{
		enter:   make([]sim.Cycles, ptids),
		perPtid: make([]uint64, ptids),
		acq:     metrics.NewHistogram(),
		handoff: metrics.NewHistogram(),
		keepRel: keepRel,
	}
}

// registerLockNatives installs the three probes on one core, bound to rec.
// They cost zero cycles, so they perturb only instruction counts, never
// the contention dynamics under measurement.
func registerLockNatives(c *core.Core, rec *lockRecorder) {
	c.RegisterNative(l1Enter, func(c *core.Core, t *hwthread.Context) sim.Cycles {
		rec.enter[t.PTID] = c.Now()
		return 0
	})
	c.RegisterNative(l1Acquired, func(c *core.Core, t *hwthread.Context) sim.Cycles {
		now := c.Now()
		rec.acq.RecordCycles(now - rec.enter[t.PTID])
		if rec.haveRel {
			rec.handoff.RecordCycles(now - rec.lastRel)
			if !rec.keepRel {
				rec.haveRel = false
			}
		}
		rec.perPtid[t.PTID]++
		rec.doneAt = now
		return 0
	})
	c.RegisterNative(l1Release, func(c *core.Core, t *hwthread.Context) sim.Cycles {
		rec.lastRel = c.Now()
		rec.haveRel = true
		rec.doneAt = rec.lastRel
		return 0
	})
}

func l1Regs() nsync.Regs {
	return nsync.Regs{Base: "r10", Me: "r12", Zero: "r8",
		T1: "r1", T2: "r2", T3: "r3", T4: "r4"}
}

// delayLoop burns ~3n instructions using reg as the counter.
func delayLoop(g *nsync.Gen, reg string, n int) {
	loop, done := g.L("burn"), g.L("burnt")
	g.I("movi %s, %d", reg, n)
	g.Label(loop)
	g.I("beq %s, r8, %s", reg, done)
	g.I("addi %s, %s, -1", reg, reg)
	g.I("jmp %s", loop)
	g.Label(done)
}

// lockProgSource builds the lock-shaped skeleton: iters critical sections,
// each a probed acquire, a non-atomic counter bump (any exclusion violation
// loses counts), an optional hold loop, and a probed release.
func lockProgSource(name string, l nsync.Lock, iters, holdIters int) string {
	g := nsync.NewGen(strings.ReplaceAll(name, "/", "_"))
	r := l1Regs()
	g.Label("entry")
	g.I("movi r9, %d", iters)
	loop, done := g.L("loop"), g.L("done")
	g.Label(loop)
	g.I("beq r9, r8, %s", done)
	g.I("native %s", l1Enter)
	l.EmitAcquire(g, r)
	g.I("native %s", l1Acquired)
	g.I("ld r5, [r11+0]")
	g.I("addi r5, r5, 1")
	g.I("st [r11+0], r5")
	if holdIters > 0 {
		delayLoop(g, "r6", holdIters)
	}
	g.I("native %s", l1Release)
	l.EmitRelease(g, r)
	g.I("addi r9, r9, -1")
	g.I("jmp %s", loop)
	g.Label(done)
	g.I("halt")
	return g.Source()
}

// condProgSources builds the cond-shaped pair: thread 0 signals a broadcast
// after a warm-up long enough that every waiter is parked; the probes turn
// the handoff histogram into per-waiter signal→wake latency.
func condProgSources(cv nsync.CondVar) (waiter, signaler string) {
	r := l1Regs()
	w := nsync.NewGen("cwait")
	w.Label("entry")
	w.I("native %s", l1Enter)
	cv.EmitSnapshot(w, r)
	cv.EmitWaitChanged(w, r)
	w.I("native %s", l1Acquired)
	w.I("halt")

	s := nsync.NewGen("csig")
	s.Label("entry")
	delayLoop(s, "r6", 20_000)
	s.I("native %s", l1Release)
	cv.EmitSignal(s, r)
	s.I("halt")
	return w.Source(), s.Source()
}

// barrierProgSource builds the barrier-shaped skeleton: rounds probed
// arrive-and-wait crossings; the acquire histogram is per-thread barrier
// wait time (arrival to generation release).
func barrierProgSource(b nsync.SyncBarrier, workers, rounds int) string {
	g := nsync.NewGen("bar")
	r := l1Regs()
	g.Label("entry")
	g.I("movi r9, %d", rounds)
	loop, done := g.L("round"), g.L("done")
	g.Label(loop)
	g.I("beq r9, r8, %s", done)
	g.I("native %s", l1Enter)
	b.EmitArrive(g, r, workers)
	g.I("native %s", l1Acquired)
	g.I("addi r9, r9, -1")
	g.I("jmp %s", loop)
	g.Label(done)
	g.I("halt")
	return g.Source()
}

// lockRow is one measured cell configuration: one row of L1's table.
type lockRow struct {
	Cell        string
	Ptids       int
	Slots       int
	Hold        string // "short" | "long"
	Acq         uint64 // total acquisitions (wakes for cond, crossings for barrier)
	P50, P99    int64  // acquire latency, cycles
	HandoffMean float64
	StarveMax   int64  // worst single acquire latency
	Spread      uint64 // max-min per-ptid acquisitions
	DoneAt      int64  // simulated cycle of the last probe
}

// runLockRow builds a one-core machine for the cell and measures it.
func runLockRow(lc lockConfig, cell lockCell, ptids, slots, holdIters int) (lockRow, error) {
	row := lockRow{Cell: cell.Name, Ptids: ptids, Slots: slots, Hold: "short"}
	if holdIters > 0 {
		row.Hold = "long"
	}
	iters := lc.TotalAcq / ptids
	if iters < 1 {
		iters = 1
	}
	threads := ptids
	if cell.UseFutex && cell.Flavor == nsync.Nocs {
		threads++ // the kernel's descriptor-service thread takes the top ptid
	}
	m := machine.New(machine.WithThreads(threads), machine.WithSMTSlots(slots))
	c := m.Core(0)
	rec := newLockRecorder(ptids, cell.Shape == shapeCond)
	registerLockNatives(c, rec)

	if cell.UseFutex {
		fsvc := nsync.NewFutexService(c)
		if cell.Flavor == nsync.Nocs {
			k := kernel.NewNocs(c)
			fsvc.InstallNocs(k)
			users := make([]hwthread.PTID, ptids)
			for i := range users {
				users[i] = hwthread.PTID(i)
			}
			if _, err := k.ServeSyscalls(users, l1DescBase); err != nil {
				return row, fmt.Errorf("%s: %w", cell.Name, err)
			}
		} else {
			fsvc.InstallLegacy(c)
		}
	}

	// Build per-thread programs (identical for all threads except the cond
	// signaler), bind, wire registers, and boot.
	var sources []string
	wantAcq := uint64(ptids) * uint64(iters)
	wantCounter := int64(ptids) * int64(iters)
	switch cell.Shape {
	case shapeLock:
		l, err := nsync.NewLock(cell.Kind, cell.Flavor, cell.UseFutex)
		if err != nil {
			return row, err
		}
		src := lockProgSource(cell.Name, l, iters, holdIters)
		for i := 0; i < ptids; i++ {
			sources = append(sources, src)
		}
	case shapeCond:
		waiter, signaler := condProgSources(nsync.CondVar{F: cell.Flavor})
		sources = append(sources, signaler)
		for i := 1; i < ptids; i++ {
			sources = append(sources, waiter)
		}
		wantAcq = uint64(ptids - 1)
		wantCounter = -1
	case shapeBarrier:
		src := barrierProgSource(nsync.SyncBarrier{F: cell.Flavor}, ptids, iters)
		for i := 0; i < ptids; i++ {
			sources = append(sources, src)
		}
		wantCounter = -1
	}
	for i, src := range sources {
		p := hwthread.PTID(i)
		prog, err := asm.Assemble(fmt.Sprintf("l1-%s-%d", cell.Name, i), src)
		if err != nil {
			return row, fmt.Errorf("%s: %w", cell.Name, err)
		}
		if err := c.BindProgram(p, prog, "entry"); err != nil {
			return row, err
		}
		ctx := c.Threads().Context(p)
		ctx.Regs.GPR[8] = 0
		ctx.Regs.GPR[10] = l1LockBase
		ctx.Regs.GPR[11] = l1DataBase
		ctx.Regs.GPR[12] = int64(i)
	}
	for i := 0; i < ptids; i++ {
		if err := c.BootStart(hwthread.PTID(i)); err != nil {
			return row, err
		}
	}

	m.RunUntil(lc.Deadline)
	if err := m.Fatal(); err != nil {
		return row, fmt.Errorf("%s: %w", cell.Name, err)
	}
	for i := 0; i < ptids; i++ {
		if c.Threads().Context(hwthread.PTID(i)).State != hwthread.Disabled {
			return row, fmt.Errorf("%s ptids=%d slots=%d hold=%s: thread %d still live at deadline (lost wakeup or convoy livelock)",
				cell.Name, ptids, slots, row.Hold, i)
		}
	}
	if wantCounter >= 0 {
		if got := m.Mem().Read(l1DataBase); got != wantCounter {
			return row, fmt.Errorf("%s: counter %d, want %d — mutual exclusion violated under measurement",
				cell.Name, got, wantCounter)
		}
	}
	if rec.acq.Count() != wantAcq {
		return row, fmt.Errorf("%s: %d acquisitions recorded, want %d", cell.Name, rec.acq.Count(), wantAcq)
	}

	row.Acq = rec.acq.Count()
	row.P50 = rec.acq.Quantile(0.5)
	row.P99 = rec.acq.Quantile(0.99)
	row.StarveMax = rec.acq.Max()
	if rec.handoff.Count() > 0 {
		row.HandoffMean = rec.handoff.Mean()
	}
	minAcq, maxAcq := rec.perPtid[0], rec.perPtid[0]
	for _, n := range rec.perPtid {
		if n < minAcq {
			minAcq = n
		}
		if n > maxAcq {
			maxAcq = n
		}
	}
	if cell.Shape == shapeCond {
		minAcq = 0 // the signaler never acquires; spread is meaningless
		maxAcq = 0
	}
	row.Spread = maxAcq - minAcq
	row.DoneAt = int64(rec.doneAt)
	return row, nil
}

// lockShardSummary renders the shard sweep's observable state — per-core
// recorder contents in core order plus retired counts — as one string for
// the byte-identity check.
func lockShardSummary(recs []*lockRecorder, m *machine.Machine) string {
	var b strings.Builder
	for i, rec := range recs {
		fmt.Fprintf(&b, "core%d acq=%d p50=%d p99=%d max=%d done=%d retired=%d counter=%d\n",
			i, rec.acq.Count(), rec.acq.Quantile(0.5), rec.acq.Quantile(0.99),
			rec.acq.Max(), rec.doneAt, m.Core(i).Retired(),
			m.MemOf(m.ShardOfCore(i)).Read(l1DataBase+int64(i)*l1CoreStride))
	}
	return b.String()
}

// runLockShardSweep runs 4 cores, each with an independent mcs/nocs cell at
// per-core offset addresses, under shard counts 1, 2, and 4 — the 1-shard
// serial run is the oracle; every sharded run must produce a byte-identical
// summary. Returns the oracle hash, the sharded passes' worker count, and
// the best sharded speedup.
func runLockShardSweep(lc lockConfig) (hash uint64, workers int, speedup float64, err error) {
	const cores, perCore = 4, 4
	iters := lc.TotalAcq / (cores * perCore)
	if iters < 1 {
		iters = 1
	}
	l, err := nsync.NewLock(nsync.MCS, nsync.Nocs, false)
	if err != nil {
		return 0, 0, 0, err
	}
	src := lockProgSource("mcs/nocs", l, iters, 0)

	run := func(shards, workers int) (string, time.Duration, error) {
		m := machine.New(
			machine.WithCores(cores),
			machine.WithShards(shards),
			machine.WithWorkers(workers),
			machine.WithThreads(perCore),
			machine.WithSMTSlots(2),
		)
		if workers > 1 {
			if err := requireSharded(m); err != nil {
				return "", 0, err
			}
		}
		recs := make([]*lockRecorder, cores)
		for i := 0; i < cores; i++ {
			c := m.Core(i)
			recs[i] = newLockRecorder(perCore, false)
			registerLockNatives(c, recs[i])
			off := int64(i) * l1CoreStride
			prog, err := asm.Assemble(fmt.Sprintf("l1-shard-%d", i), src)
			if err != nil {
				return "", 0, err
			}
			for p := 0; p < perCore; p++ {
				pt := hwthread.PTID(p)
				if err := c.BindProgram(pt, prog, "entry"); err != nil {
					return "", 0, err
				}
				ctx := c.Threads().Context(pt)
				ctx.Regs.GPR[8] = 0
				ctx.Regs.GPR[10] = l1LockBase + off
				ctx.Regs.GPR[11] = l1DataBase + off
				ctx.Regs.GPR[12] = int64(p)
			}
			for p := 0; p < perCore; p++ {
				if err := c.BootStart(hwthread.PTID(p)); err != nil {
					return "", 0, err
				}
			}
		}
		t0 := time.Now()
		m.RunUntil(lc.Deadline)
		wall := time.Since(t0)
		if err := m.Fatal(); err != nil {
			return "", 0, err
		}
		return lockShardSummary(recs, m), wall, nil
	}

	oracle, serWall, err := run(1, 1)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("L1 shard oracle: %w", err)
	}
	workers = min(shardedWorkers(), 4)
	bestWall := serWall
	for _, shards := range []int{2, 4} {
		sum, wall, err := run(shards, workers)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("L1 shards=%d: %w", shards, err)
		}
		if sum != oracle {
			return 0, 0, 0, fmt.Errorf("L1: DETERMINISM VIOLATION — shards=%d summary differs from the serial oracle (%x vs %x)",
				shards, summaryHash(sum), summaryHash(oracle))
		}
		if wall < bestWall {
			bestWall = wall
		}
	}
	return summaryHash(oracle), workers, serWall.Seconds() / bestWall.Seconds(), nil
}

// runLocks executes the L1 contention sweep: every primitive×flavor cell
// across the ptid ladder, long-hold and SMT variants at the mid contention
// point, parking-flavor extreme rows, and the shard-determinism sweep.
func runLocks(lc lockConfig) (*Result, error) {
	mid := lc.midPtids()
	var rows []lockRow
	add := func(cell lockCell, ptids, slots, hold int) error {
		row, err := runLockRow(lc, cell, ptids, slots, hold)
		if err != nil {
			return err
		}
		rows = append(rows, row)
		return nil
	}
	for _, cell := range lockCells {
		switch cell.Shape {
		case shapeLock:
			for _, p := range lc.Ptids {
				if err := add(cell, p, 2, 0); err != nil {
					return nil, err
				}
			}
			if err := add(cell, mid, 2, lc.HoldIters); err != nil {
				return nil, err
			}
		default:
			// Cond and barrier cells run at the mid contention point only.
			if err := add(cell, mid, 2, 0); err != nil {
				return nil, err
			}
		}
	}
	// SMT sensitivity: the spin-heavy TTAS pair at 1 and 4 slots (2 is the
	// base row above) — parking flavors barely notice, spinners stretch.
	for _, cell := range lockCells[2:4] {
		for _, slots := range []int{1, 4} {
			if err := add(cell, mid, slots, 0); err != nil {
				return nil, err
			}
		}
	}
	// The park-only extreme: thousands of hardware threads on one lock is
	// exactly the regime the paper's parking argument targets; spin flavors
	// are excluded (a 1000-spinner host run measures the host, not the lock).
	if lc.Extreme > 0 {
		for _, name := range []string{"mcs/nocs", "mutex/nocs"} {
			for _, cell := range lockCells {
				if cell.Name == name {
					if err := add(cell, lc.Extreme, 2, 0); err != nil {
						return nil, err
					}
				}
			}
		}
	}

	hash, workers, speedup, err := runLockShardSweep(lc)
	if err != nil {
		return nil, err
	}

	t := metrics.NewTable(
		fmt.Sprintf("contended critical sections, %d target acquisitions per row", lc.TotalAcq),
		"cell", "ptids", "slots", "hold", "acq", "p50", "p99", "handoff", "starve", "spread", "done")
	for _, r := range rows {
		t.Row(r.Cell, r.Ptids, r.Slots, r.Hold, r.Acq, r.P50, r.P99,
			fmt.Sprintf("%.1f", r.HandoffMean), r.StarveMax, r.Spread, r.DoneAt)
	}
	return &Result{
		Tables: []*metrics.Table{t},
		Notes: []string{
			fmt.Sprintf("shard sweep byte-identical under 1/2/4 shards (fnv64a %016x), %d workers, best speedup %.2fx",
				hash, workers, speedup),
			"acquire latency and handoff measured by zero-cost probe natives around the emitted acquire/release",
		},
		Metrics: []Metric{
			{"shard_workers", "goroutines", float64(workers)},
			{"shard_speedup", "x", speedup},
		},
	}, nil
}
