// Package machine assembles complete simulated systems: a scheduler of one
// or more event-queue shards, per-shard physical memory with the
// generalized monitor engine attached, per-shard legacy interrupt
// controllers, N cores, and device constructors that wire DMA ports and
// MMIO windows correctly.
//
// Machines are built with functional options:
//
//	m := machine.New(machine.WithCores(2), machine.WithSMTSlots(4))
//
// A zero-argument New() gives the paper-default system: one core, two SMT
// slots, 64 hardware threads, DMA-visible monitoring, a single shard. To
// run one machine across real CPUs, shard it (DESIGN.md §12):
//
//	m := machine.New(machine.WithCores(64),
//		machine.WithShards(64), machine.WithWorkers(8),
//		machine.WithLookahead(400))
//
// Each shard owns a contiguous block of cores plus its locally attached
// devices, memory, monitor, and interrupt controller; shards interact only
// through timestamped cross-shard messages (RemoteWrite, Shard.Send) whose
// minimum latency is the lookahead. With WithShards(1) — the default —
// everything lands on shard 0 and the machine is indistinguishable from the
// classic single-engine build. Attach a tracer with WithTracer to record a
// Chrome-trace timeline of the run (see internal/trace); each shard records
// into its own fork of it, so a traced machine runs exactly as an untraced
// one does and its trace is the same at any worker count.
package machine

import (
	"fmt"

	"nocs/internal/core"
	"nocs/internal/device"
	"nocs/internal/faultinject"
	"nocs/internal/hwthread"
	"nocs/internal/irq"
	"nocs/internal/mem"
	"nocs/internal/monitor"
	"nocs/internal/sim"
	"nocs/internal/snapshot"
	"nocs/internal/trace"
)

// DefaultLookahead is the conservative synchronization horizon used when
// WithLookahead is not given: the minimum virtual latency of any
// cross-shard interaction. 400 cycles is the machine's IPI send cost — the
// cheapest architected cross-core signal — so no legal remote effect can
// arrive sooner (DESIGN.md §12 derives this).
const DefaultLookahead = sim.Cycles(400)

// Config describes a machine. Most callers should use New with options
// rather than filling this in directly; WithConfig is the escape hatch for
// fully hand-built configurations.
type Config struct {
	// Cores is the number of CPU cores (default 1).
	Cores int
	// Core is the per-core template; its ID field is overridden per core.
	Core core.Config
	// Shards is the number of event-queue shards (default 1; clamped to
	// Cores). Cores are assigned to shards in contiguous blocks; each shard
	// gets its own memory, monitor, and interrupt controller, so shards
	// share no mutable state and may execute concurrently.
	Shards int
	// Workers is the number of OS threads driving the shards (default 1 =
	// SerialScheduler, the determinism oracle; >1 selects the
	// ShardedScheduler). Output is byte-identical at any worker count.
	Workers int
	// Lookahead is the cross-shard synchronization horizon in cycles
	// (default DefaultLookahead). RemoteWrite and Shard.Send must use
	// delays of at least this value.
	Lookahead sim.Cycles
	// DMAMonitorVisible controls whether device writes trigger monitor
	// wakeups (true = the paper's hardware; false = today's x86, ablation
	// A2). CPU writes are always visible.
	DMAMonitorVisible bool
	// IRQ configures the legacy interrupt controller costs.
	IRQ irq.Costs
	// Tracer, when non-nil, records engine dispatch, monitor arm/fire,
	// IRQ delivery, per-ptid state spans and exec batches, and device DMA.
	// New forks one buffer per shard from it (trace.Tracer.Fork), so
	// shards never share one and Workers is honoured. Nil (the default)
	// costs nothing on the hot paths.
	Tracer *trace.Tracer
	// Name prefixes this machine's trace track groups (default "machine"),
	// so several machines can share one tracer without colliding.
	Name string
	// FaultPlan, when enabled, arms deterministic fault injection across
	// every layer of the machine: delayed/reordered/dropped DMA and MSI
	// completions, spurious and coalesced monitor wakeups, transient
	// state-transfer errors, and mid-request thread faults (see
	// internal/faultinject). The zero plan injects nothing. On a sharded
	// machine each shard gets its own injector with a shard-salted seed,
	// so fault schedules stay deterministic at any worker count.
	FaultPlan faultinject.Plan
}

// Option customizes a machine under construction.
type Option func(*Config)

// WithCores sets the number of CPU cores.
func WithCores(n int) Option { return func(c *Config) { c.Cores = n } }

// WithSMTSlots sets the per-core SMT issue width shared by runnable ptids.
func WithSMTSlots(k int) Option { return func(c *Config) { c.Core.Slots = k } }

// WithThreads sets the per-core hardware thread (ptid) count.
func WithThreads(n int) Option { return func(c *Config) { c.Core.Threads = n } }

// WithShards splits the machine into n event-queue shards (clamped to the
// core count). Shard 0 always exists; WithShards(1) is the classic
// single-engine machine.
func WithShards(n int) Option { return func(c *Config) { c.Shards = n } }

// WithWorkers sets how many OS threads drive the shards. 1 (the default)
// is the serial oracle; >1 runs windows on a goroutine pool with identical
// output.
func WithWorkers(n int) Option { return func(c *Config) { c.Workers = n } }

// WithLookahead sets the cross-shard synchronization horizon in cycles.
func WithLookahead(cycles sim.Cycles) Option {
	return func(c *Config) { c.Lookahead = cycles }
}

// WithCoreConfig replaces the whole per-core template (ID is still
// overridden per core).
func WithCoreConfig(cc core.Config) Option { return func(c *Config) { c.Core = cc } }

// WithCosts sets the architectural transition cost table.
func WithCosts(costs core.CostConfig) Option { return func(c *Config) { c.Core.Costs = costs } }

// WithDMAMonitorVisible controls whether device writes trigger monitor
// wakeups (the A2 ablation knob; default true).
func WithDMAMonitorVisible(v bool) Option { return func(c *Config) { c.DMAMonitorVisible = v } }

// WithIRQCosts sets the legacy interrupt controller cost table.
func WithIRQCosts(costs irq.Costs) Option { return func(c *Config) { c.IRQ = costs } }

// WithTracer attaches a tracer to every layer of the machine.
func WithTracer(t *trace.Tracer) Option { return func(c *Config) { c.Tracer = t } }

// WithName sets the machine's trace name prefix.
func WithName(n string) Option { return func(c *Config) { c.Name = n } }

// WithFaultPlan arms deterministic, seeded fault injection on every layer
// of the machine (devices, monitor, state store, kernel services). The
// zero plan is a no-op; use faultinject.Default() for the standard
// adversarial mix.
func WithFaultPlan(p faultinject.Plan) Option { return func(c *Config) { c.FaultPlan = p } }

// WithConfig replaces the entire configuration — the escape hatch for
// callers that build a Config by hand. Apply it first if combined with
// other options, since it overwrites all previous settings (including the
// defaults New starts from).
func WithConfig(cfg Config) Option { return func(c *Config) { *c = cfg } }

// shardState is everything one shard owns: its event queue plus the
// shard-local memory system, monitor, interrupt controller, and fault
// injector. Nothing in here is ever touched from another shard's events.
type shardState struct {
	sh  *sim.Shard
	mem *mem.Memory
	mon *monitor.Engine
	irq *irq.Controller
	inj *faultinject.Injector
	tr  *trace.Tracer // this shard's fork of Config.Tracer (nil = off)
}

// machDevice is one registered device: its stable checkpoint name ("nic0",
// "timer1", ...), owning shard, and snapshot surface.
type machDevice struct {
	name  string
	shard sim.ShardID
	dev   ComponentSnapshotter
}

// ComponentSnapshotter is the checkpoint surface of a device and of a
// driver-built component (a kernel personality, a netstack service, a
// queueing server, ...) attached to the machine's snapshot with
// AttachSnapshotter. SnapshotState writes the component's dynamic state,
// including a record for every live event it owns, taking each event's
// (at, seq) from sim.Engine.Claim or ClaimLive: writing the record is what
// claims the event, and an event no component writes, or that two write,
// fails the snapshot by name (DESIGN.md §13). RestoreState reads that state
// back and re-creates the owned events at their original slots.
type ComponentSnapshotter interface {
	SnapshotState(w *snapshot.W) error
	RestoreState(r *snapshot.R) error
}

// attachedComponent is one driver-registered snapshot participant.
type attachedComponent struct {
	name  string
	shard sim.ShardID
	cs    ComponentSnapshotter
}

// Machine is a complete simulated system.
type Machine struct {
	sched     sim.Scheduler
	shards    []shardState
	cores     []*core.Core
	coreShard []sim.ShardID
	look      sim.Cycles

	// devices registers every attached device in creation order, for
	// checkpointing; injects tracks driver-scheduled deterministic
	// injections (ScheduleDMAWrite / ScheduleSpuriousWake) still queued;
	// attached holds driver-registered snapshot participants.
	devices  []machDevice
	injects  []*pendingInject
	attached []attachedComponent

	tr   *trace.Tracer
	name string
	// Per-kind device counters, used only to name trace tracks
	// ("nic0", "timer1", ...).
	nNIC, nTimer, nSSD int
}

// New builds a machine from the paper defaults (one core, one shard,
// DMA-visible monitoring) modified by the given options.
func New(opts ...Option) *Machine {
	cfg := Config{Cores: 1, DMAMonitorVisible: true}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	if cfg.Name == "" {
		cfg.Name = "machine"
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Shards > cfg.Cores {
		cfg.Shards = cfg.Cores
	}
	if cfg.Lookahead <= 0 {
		cfg.Lookahead = DefaultLookahead
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Workers > cfg.Shards {
		cfg.Workers = cfg.Shards
	}

	var sched sim.Scheduler
	if cfg.Workers > 1 {
		sched = sim.NewShardedScheduler(cfg.Shards, cfg.Lookahead, cfg.Workers)
	} else {
		sched = sim.NewSerialScheduler(cfg.Shards, cfg.Lookahead)
	}

	mach := &Machine{
		sched: sched,
		look:  sched.Lookahead(),
		tr:    cfg.Tracer,
		name:  cfg.Name,
	}

	for s := 0; s < cfg.Shards; s++ {
		sh := sched.Shard(sim.ShardID(s))
		m := mem.NewMemory()
		mon := monitor.NewEngine()
		mon.DMAVisible = cfg.DMAMonitorVisible
		m.AddObserver(mon)
		st := shardState{
			sh:  sh,
			mem: m,
			mon: mon,
			irq: irq.NewController(sh, cfg.IRQ),
			tr:  cfg.Tracer.Fork(),
		}
		if tr := st.tr; tr != nil {
			pre := mach.shardTracePrefix(sim.ShardID(s))
			now := func() int64 { return int64(sh.Now()) }
			sh.SetTracer(tr, tr.NewTrack(pre+"/engine", "dispatch"))
			mon.SetTracer(tr, now, pre+"/monitor")
			st.irq.SetTracer(tr, pre+"/irq")
		}
		plan := cfg.FaultPlan
		if s > 0 {
			// Distinct deterministic fault stream per shard: schedules may
			// not depend on which worker runs which shard, only on the
			// plan, so salt the seed by shard identity.
			plan.Seed ^= 0x9E3779B97F4A7C15 * uint64(s)
		}
		if inj := faultinject.New(plan); inj != nil {
			st.inj = inj
			if tr := st.tr; tr != nil {
				inj.SetTracer(tr, func() int64 { return int64(sh.Now()) },
					mach.shardTracePrefix(sim.ShardID(s))+"/faults")
			}
			mon.SetFaultInjector(inj, func(d sim.Cycles, name string, cb sim.Callback) sim.Handle {
				return sh.AfterCallback(d, name, cb)
			})
		}
		mach.shards = append(mach.shards, st)
	}

	for i := 0; i < cfg.Cores; i++ {
		s := sim.ShardID(i * cfg.Shards / cfg.Cores)
		cc := cfg.Core
		cc.ID = i
		st := &mach.shards[s]
		if st.tr != nil {
			cc.Tracer = st.tr
			cc.TraceName = fmt.Sprintf("%s/core%d", cfg.Name, i)
		}
		c := core.New(cc, st.sh, st.mem, st.mon)
		if st.inj != nil {
			c.SetFaultInjector(st.inj)
		}
		mach.cores = append(mach.cores, c)
		mach.coreShard = append(mach.coreShard, s)
	}
	return mach
}

// shardTracePrefix keeps the classic track names on a single-shard machine
// ("machine/engine", …) and disambiguates per shard otherwise
// ("machine/s2/engine", …).
func (m *Machine) shardTracePrefix(s sim.ShardID) string {
	if len(m.shards) <= 1 && s == 0 {
		return m.name
	}
	return fmt.Sprintf("%s/s%d", m.name, s)
}

// Scheduler returns the machine's scheduler — the redesigned driving
// surface (RunUntil, shard handles, horizon queries).
func (m *Machine) Scheduler() sim.Scheduler { return m.sched }

// Shards returns the shard count (1 for a classic machine).
func (m *Machine) Shards() int { return len(m.shards) }

// Shard returns the handle for shard s (nil if out of range). Components
// built by hand must be wired to the shard that owns their state.
func (m *Machine) Shard(s sim.ShardID) *sim.Shard {
	if int(s) < 0 || int(s) >= len(m.shards) {
		return nil
	}
	return m.shards[s].sh
}

// ShardOfCore returns the shard core i lives on.
func (m *Machine) ShardOfCore(i int) sim.ShardID { return m.coreShard[i] }

// Lookahead returns the cross-shard synchronization horizon.
func (m *Machine) Lookahead() sim.Cycles { return m.look }

// Now returns the committed global simulated time.
func (m *Machine) Now() sim.Cycles { return m.sched.Now() }

// Mem returns shard 0's physical memory (the machine's only memory on a
// classic single-shard build). Use MemOf on sharded machines.
func (m *Machine) Mem() *mem.Memory { return m.shards[0].mem }

// MemOf returns shard s's physical memory.
func (m *Machine) MemOf(s sim.ShardID) *mem.Memory { return m.shards[s].mem }

// Monitor returns shard 0's monitor engine. Use MonitorOf on sharded
// machines.
func (m *Machine) Monitor() *monitor.Engine { return m.shards[0].mon }

// MonitorOf returns shard s's monitor engine.
func (m *Machine) MonitorOf(s sim.ShardID) *monitor.Engine { return m.shards[s].mon }

// IRQ returns shard 0's legacy interrupt controller. Use IRQOf on sharded
// machines.
func (m *Machine) IRQ() *irq.Controller { return m.shards[0].irq }

// IRQOf returns shard s's legacy interrupt controller.
func (m *Machine) IRQOf(s sim.ShardID) *irq.Controller { return m.shards[s].irq }

// Tracer returns the attached tracer (nil when tracing is off).
func (m *Machine) Tracer() *trace.Tracer { return m.tr }

// FaultInjector returns shard 0's armed fault injector (nil when faults
// are off).
func (m *Machine) FaultInjector() *faultinject.Injector { return m.shards[0].inj }

// FaultInjectorOf returns shard s's armed fault injector (nil when faults
// are off).
func (m *Machine) FaultInjectorOf(s sim.ShardID) *faultinject.Injector { return m.shards[s].inj }

// Cores returns the core count.
func (m *Machine) Cores() int { return len(m.cores) }

// Core returns core i (nil if out of range).
func (m *Machine) Core(i int) *core.Core {
	if i < 0 || i >= len(m.cores) {
		return nil
	}
	return m.cores[i]
}

// Run drains the event queues (or runs at most limit events; limit <= 0
// means unlimited; a positive limit is single-shard only). It returns the
// number of events executed.
func (m *Machine) Run(limit int) int { return m.sched.Run(limit) }

// RunUntil executes events up to the deadline on every shard.
func (m *Machine) RunUntil(deadline sim.Cycles) int { return m.sched.RunUntil(deadline) }

// remoteWrite is the delivered body of a RemoteWrite: it runs on the target
// shard and performs a plain CPU-visible store there, so monitors on the
// target shard observe it exactly like a local write.
type remoteWrite struct {
	mem  *mem.Memory
	addr int64
	val  int64
}

func (rw *remoteWrite) OnEvent() { rw.mem.Write(rw.addr, rw.val, mem.SrcCPU) }

// RemoteWrite performs a cross-shard memory store: after `delay` cycles
// (>= Lookahead; 0 means exactly Lookahead) the value lands in shard `to`'s
// memory as a CPU-visible write, waking any monitor armed on the address —
// the sharded generalization of the paper's remote-write wakeup. From == to
// degenerates to a local delayed store.
func (m *Machine) RemoteWrite(from, to sim.ShardID, addr, val int64, delay sim.Cycles) {
	if delay <= 0 {
		delay = m.look
	}
	m.shards[from].sh.Send(to, delay, "xwrite", &remoteWrite{mem: m.shards[to].mem, addr: addr, val: val})
}

// Injection kinds for pendingInject.
const (
	injectDMA  = uint8(0)
	injectWake = uint8(1)
)

// pendingInject is one driver-scheduled deterministic injection — a DMA
// write or a spurious monitor wake from a precomputed schedule (the
// differential harness's generated specs). Keeping these as tracked machine
// state instead of driver closures is what lets a run with a pending
// injection schedule be checkpointed (DESIGN.md §13).
type pendingInject struct {
	m    *Machine
	h    sim.Handle
	s    sim.ShardID
	kind uint8
	addr int64 // DMA target
	val  int64
	core int64 // wake target
	ptid int64
}

func (j *pendingInject) OnEvent() {
	m := j.m
	for i, q := range m.injects {
		if q == j {
			m.injects = append(m.injects[:i], m.injects[i+1:]...)
			break
		}
	}
	switch j.kind {
	case injectDMA:
		m.shards[j.s].mem.Write(j.addr, j.val, mem.SrcDMA)
	case injectWake:
		m.cores[j.core].InjectSpuriousWake(hwthread.PTID(j.ptid))
	}
}

// ScheduleDMAWrite schedules a device-style DMA store into shard s's memory
// at absolute cycle `at`. Unlike an ad-hoc driver closure, the pending write
// is machine state and survives a checkpoint.
func (m *Machine) ScheduleDMAWrite(s sim.ShardID, at sim.Cycles, addr, val int64) {
	j := &pendingInject{m: m, s: s, kind: injectDMA, addr: addr, val: val}
	j.h = m.shards[s].sh.AtCallback(at, "dma", j)
	m.injects = append(m.injects, j)
}

// ScheduleSpuriousWake schedules an injected spurious monitor wake for core
// ci's ptid p at absolute cycle `at` (a precomputed fault schedule entry).
func (m *Machine) ScheduleSpuriousWake(ci int, at sim.Cycles, p hwthread.PTID) {
	s := m.coreShard[ci]
	j := &pendingInject{m: m, s: s, kind: injectWake, core: int64(ci), ptid: int64(p)}
	j.h = m.shards[s].sh.AtCallback(at, "fault-wake", j)
	m.injects = append(m.injects, j)
}

// AttachSnapshotter registers a driver-built component living on shard s in
// the machine's checkpoint: Snapshot writes its section ("ext/<name>") and
// claims its live events, and Restore calls its RestoreState. The restore
// target must attach the same components in the same order.
func (m *Machine) AttachSnapshotter(name string, s sim.ShardID, cs ComponentSnapshotter) {
	m.attached = append(m.attached, attachedComponent{name: name, shard: s, cs: cs})
}

// Fatal returns the first core fatal error, if any.
func (m *Machine) Fatal() error {
	for _, c := range m.cores {
		if err := c.Fatal(); err != nil {
			return err
		}
	}
	return nil
}

// Retired sums instructions retired across cores.
func (m *Machine) Retired() uint64 {
	var n uint64
	for _, c := range m.cores {
		n += c.Retired()
	}
	return n
}

// wireDMA attaches shard s's tracer to a device DMA port, giving the
// device its own track in the "<name>/devices" group.
func (m *Machine) wireDMA(s sim.ShardID, d *mem.DMA, devName string) {
	tr := m.shards[s].tr
	if tr == nil {
		return
	}
	sh := m.shards[s].sh
	track := tr.NewTrack(m.name+"/devices", devName)
	d.SetTracer(tr, func() int64 { return int64(sh.Now()) }, track)
}

// NewNIC attaches a NIC to shard 0 with its own DMA port. The config is
// validated; if it enables the transmit side, the TX doorbell MMIO window
// is mapped too.
func (m *Machine) NewNIC(cfg device.NICConfig, sig device.Signal) (*device.NIC, error) {
	return m.NewNICOn(0, cfg, sig)
}

// NewNICOn attaches a NIC to shard s: its events, DMA writes, and MMIO
// window all live on that shard, so it must signal cores of the same shard.
func (m *Machine) NewNICOn(s sim.ShardID, cfg device.NICConfig, sig device.Signal) (*device.NIC, error) {
	st := &m.shards[s]
	dma := mem.NewDMA(st.mem, mem.SrcDMA)
	n, err := device.NewNIC(cfg, st.sh, dma, sig)
	if err != nil {
		return nil, err
	}
	n.SetFaultInjector(st.inj)
	if db := n.Config().TXDoorbell; db != 0 {
		if err := st.mem.MapMMIO(db, 8, n); err != nil {
			return nil, fmt.Errorf("machine: mapping NIC TX doorbell: %w", err)
		}
	}
	m.wireDMA(s, dma, fmt.Sprintf("nic%d", m.nNIC))
	m.devices = append(m.devices, machDevice{name: fmt.Sprintf("nic%d", m.nNIC), shard: s, dev: n})
	m.nNIC++
	return n, nil
}

// NewTimer attaches a timer to shard 0 whose ticks are MSI-style memory
// writes.
func (m *Machine) NewTimer(cfg device.TimerConfig, sig device.Signal) (*device.Timer, error) {
	return m.NewTimerOn(0, cfg, sig)
}

// NewTimerOn attaches a timer to shard s.
func (m *Machine) NewTimerOn(s sim.ShardID, cfg device.TimerConfig, sig device.Signal) (*device.Timer, error) {
	st := &m.shards[s]
	dma := mem.NewDMA(st.mem, mem.SrcMSI)
	t, err := device.NewTimer(cfg, st.sh, dma, sig)
	if err != nil {
		return nil, err
	}
	t.SetFaultInjector(st.inj)
	m.wireDMA(s, dma, fmt.Sprintf("timer%d", m.nTimer))
	m.devices = append(m.devices, machDevice{name: fmt.Sprintf("timer%d", m.nTimer), shard: s, dev: t})
	m.nTimer++
	return t, nil
}

// NewSSD attaches an SSD to shard 0 and maps its doorbell MMIO window.
func (m *Machine) NewSSD(cfg device.SSDConfig, sig device.Signal) (*device.SSD, error) {
	return m.NewSSDOn(0, cfg, sig)
}

// NewSSDOn attaches an SSD to shard s.
func (m *Machine) NewSSDOn(s sim.ShardID, cfg device.SSDConfig, sig device.Signal) (*device.SSD, error) {
	st := &m.shards[s]
	dma := mem.NewDMA(st.mem, mem.SrcDMA)
	ssd, err := device.NewSSD(cfg, st.sh, dma, sig)
	if err != nil {
		return nil, err
	}
	ssd.SetFaultInjector(st.inj)
	if err := st.mem.MapMMIO(ssd.Config().DoorbellAddr, 8, ssd); err != nil {
		return nil, fmt.Errorf("machine: mapping SSD doorbell: %w", err)
	}
	m.wireDMA(s, dma, fmt.Sprintf("ssd%d", m.nSSD))
	m.devices = append(m.devices, machDevice{name: fmt.Sprintf("ssd%d", m.nSSD), shard: s, dev: ssd})
	m.nSSD++
	return ssd, nil
}
