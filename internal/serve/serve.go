// Package serve builds datacenter-scale serving scenarios on top of the
// full-machine stack: an open-loop client population driving a load-balancer
// tier that fans requests out over netstack to a pool of app-server machines
// (thread-per-request on the paper's scheduling flavors) backed by a
// storage tier holding durable session state (DESIGN.md §15).
//
// The cluster is one sharded machine. Core 0 is the load balancer: a serve-
// owned arrival event streams requests from a workload.Source, an admission
// check sheds load when a server's window or the uplink backlog is full, and
// admitted requests leave through the LB's netstack (SendAsync outbox → TX
// NIC). The NIC's transmit hook is the wire: each packet becomes a pair of
// cross-shard RemoteWrites (slot, then doorbell) into the target app
// server's request ring. Each app server is its own core+shard with its own
// kernel, NIC, and netstack: a feeder service moves wire packets into the
// local NIC (deferring, never dropping, while its in-flight window is full),
// the stack demuxes into the request socket, and the app service parses
// requests, faults session state in from the storage tier, takes a
// per-server lock, and submits to the scheduler flavor under test — the
// nocs flavor parks lock waiters and runs processor sharing, the legacy
// flavor burns the waiter's slot and runs FCFS behind a context-switch
// overhead. Completions reply through the app stack's SendAsync path and the
// reply wire back to the LB, which records end-to-end latency.
//
// Conservation is the scenario's load-bearing invariant: every generated
// request is exactly one of completed, refused, or in flight, at every
// instant, and packet conservation holds at every ring (netstack
// backpressures instead of dropping). Overload cells (load > 1) drive the
// whole backpressure chain — scheduler queues, socket-ring NACK stalls,
// send-mailbox busy retries, staging-ring pump stalls — and the invariant
// still closes.
package serve

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"nocs/internal/device"
	"nocs/internal/hwthread"
	"nocs/internal/kernel"
	"nocs/internal/machine"
	"nocs/internal/metrics"
	"nocs/internal/netstack"
	"nocs/internal/sim"
	"nocs/internal/snapshot"
	"nocs/internal/statestore"
	"nocs/internal/workload"
)

// Flavor and arrival-process names.
const (
	FlavorNocs   = "nocs"
	FlavorLegacy = "legacy"

	ArrivalPoisson = "poisson"
	ArrivalPareto  = "pareto"
)

// Config parameterizes one serving cell. Zero fields take the defaults
// noted; every other cell parameter is one of the cell constants below.
type Config struct {
	// AppServers is the app-tier pool size (cores 1..AppServers; default 8,
	// at most 1,024).
	AppServers int
	// Conns is the simulated connection count (default 100,000); each
	// connection carries reqsPerConn requests.
	Conns int
	// Load is offered load on the app tier (default 0.8); > 1 is
	// deliberate overload.
	Load float64
	// Arrival selects the interarrival process: ArrivalPoisson (the
	// default) or ArrivalPareto (bursty, heavy-tailed gaps).
	Arrival string
	// Flavor selects the scheduling flavor: FlavorNocs (the default) or
	// FlavorLegacy.
	Flavor string
	// Seed drives every RNG in the cell.
	Seed uint64
	// Workers is the sharded-scheduler worker count (1 = serial oracle).
	Workers int
	// Window is the per-server admission window (default 256): a
	// connection is refused when its server already has this many requests
	// in flight.
	Window int
}

// ErrConfig is returned, wrapped with the offending field, by New for a
// Config it cannot build a cell from.
var ErrConfig = errors.New("serve: invalid config")

// maxAppServers bounds Config.AppServers. Each app server is a core and a
// shard of its own, so New checks the bound before it allocates anything: an
// absurd pool size fails with ErrConfig instead of exhausting host memory.
const maxAppServers = 1024

// Cell constants (DESIGN.md §15): every serving cell uses these values.
const (
	// slots is the per-server scheduler capacity: PS servers for the nocs
	// flavor, FCFS servers for legacy. Offered load is computed against
	// AppServers×slots.
	slots = 2
	// reqsPerConn is the request count per connection; its session state
	// lives in the app tier's statestore between them.
	reqsPerConn = 2
	// lookahead is the cross-shard synchronization horizon.
	lookahead = sim.Cycles(400)
	// wireDelay is the one-way wire latency between tiers (≥ lookahead).
	wireDelay = sim.Cycles(2000)
	// refuseBacklog sheds new connections when the LB's transmit outbox is
	// this deep — the uplink itself has saturated.
	refuseBacklog = 512
	// feederWindow bounds per-server packets between the wire ring and the
	// app's consumption point, so the NIC RX ring can never overrun.
	feederWindow = 128
	// Service demand: bimodal short/long with P(short) = pShort.
	shortDemand = sim.Cycles(1000)
	longDemand  = sim.Cycles(101_000)
	pShort      = float64(0.97)
	// paretoAlpha is the arrival shape for ArrivalPareto.
	paretoAlpha = float64(1.5)
	// sessionBytes sizes per-connection session state in the statestore.
	sessionBytes = 2048
	// lockHold is the per-request critical-section length on the
	// per-server lock.
	lockHold = sim.Cycles(150)
)

// Flavor-dependent costs (DESIGN.md §15): the nocs kernel starts a resident
// thread from the register file and hands a contended lock off
// monitor-to-monitor; the legacy kernel pays interrupt + scheduler + context
// switch on dispatch and a futex-style wake on contended handoff.
const (
	nocsOverhead   = sim.Cycles(70)
	nocsHandoff    = sim.Cycles(100)
	legacyOverhead = sim.Cycles(2200)
	legacyHandoff  = sim.Cycles(1800)

	// Service-thread unit costs.
	parseCost = sim.Cycles(150)
	feedCost  = sim.Cycles(80)
	ackCost   = sim.Cycles(50)
	replyCost = sim.Cycles(50)
	// Storage op costs are sized so the single storage core has headroom
	// even at the deepest overload point: one connection needs one fetch
	// plus one writeback (250 cycles serialized) and connections arrive at
	// most every 500/L cycles at the default pool size, so the app-server
	// scheduler — not the storage tier — is the contended resource.
	fetchCost = sim.Cycles(150)
	wbCost    = sim.Cycles(100)

	// Stack protocol costs: the LB runs a lean fan-out datapath, the app
	// tier a full protocol stack.
	lbPerPacket  = sim.Cycles(80)
	appPerPacket = sim.Cycles(300)

	startCycle = sim.Cycles(1000)
	drainSlack = sim.Cycles(20_000_000)
	runChunk   = sim.Cycles(1 << 20)
)

// Memory layout. Every shard has its own memory, so per-core layouts reuse
// the same addresses; only cross-shard writes need the target's map.
const (
	nicRingBase = 0x100000
	nicBufBase  = 0x200000
	nicTail     = 0x300000
	nicHead     = 0x300008
	nicTXRing   = 0x310000
	nicTXComp   = 0x320000
	nicTXDoor   = 0x9100_0000

	stackSockBase = 0x500000
	stackBufBase  = 0x580000
	stackMailbox  = 0x5F0000
	stackTXStage  = 0x600000

	// App shard: request wire ring written remotely by the LB.
	wireRingBase = 0x700000
	wireSlots    = 1024
	wireDoorbell = 0x7E0000
	fetchAckAddr = 0x7E0008

	// LB shard: per-server reply rings written remotely by app servers.
	replyRingStride = 0x4000
	replyRingBase   = 0x700000
	replySlots      = 1024
	replyDoorBase   = 0x7C0000

	// Storage shard: per-server operation doorbells.
	storFetchBase = 0x100000
	storWBBase    = 0x100800

	appReqPort = 80
	lbPort     = 9000

	demandBits = 31
	demandMask = (int64(1) << demandBits) - 1
)

func (c *Config) fill() {
	if c.AppServers == 0 {
		c.AppServers = 8
	}
	if c.Conns == 0 {
		c.Conns = 100_000
	}
	if c.Load == 0 {
		c.Load = 0.8
	}
	if c.Arrival == "" {
		c.Arrival = ArrivalPoisson
	}
	if c.Flavor == "" {
		c.Flavor = FlavorNocs
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.Window == 0 {
		c.Window = 256
	}
}

// check rejects a filled Config that names no buildable cell.
func (c *Config) check() error {
	switch {
	case c.Flavor != FlavorNocs && c.Flavor != FlavorLegacy:
		return fmt.Errorf("%w: unknown flavor %q", ErrConfig, c.Flavor)
	case c.Arrival != ArrivalPoisson && c.Arrival != ArrivalPareto:
		return fmt.Errorf("%w: unknown arrival process %q", ErrConfig, c.Arrival)
	case !(c.Load > 0) || math.IsInf(c.Load, 0):
		return fmt.Errorf("%w: Load %v is not a positive finite number", ErrConfig, c.Load)
	case c.Conns < 0:
		return fmt.Errorf("%w: Conns %d is negative", ErrConfig, c.Conns)
	case c.AppServers < 0:
		return fmt.Errorf("%w: AppServers %d is negative", ErrConfig, c.AppServers)
	case c.AppServers > maxAppServers:
		return fmt.Errorf("%w: AppServers %d exceeds the bound of %d", ErrConfig, c.AppServers, maxAppServers)
	case c.Window < 0:
		return fmt.Errorf("%w: Window %d is negative", ErrConfig, c.Window)
	case c64(c.Conns)*reqsPerConn >= 1<<(62-demandBits):
		return fmt.Errorf("%w: Conns %d overflows the wire word", ErrConfig, c.Conns)
	}
	return nil
}

// session is one connection's app-side state. Records are recycled through
// the app server's free list, and waiting keeps its array across reuse.
type session struct {
	ready    bool // storage fetch acknowledged
	active   int  // requests in the scheduler
	seenLast bool // final request completed
	waiting  []int64
}

// appServer is one app-tier machine: core, kernel, NIC, stack, statestore,
// and the scheduler flavor under test.
type appServer struct {
	cl    *Cluster
	idx   int
	shard sim.ShardID
	k     *kernel.Nocs
	nic   *device.NIC
	stack *netstack.Stack
	sock  *netstack.Socket
	store *statestore.Store
	sched kernel.QueueServer

	watch []int64
	pkt   [8]int64

	// Feeder: wire packets moved into the NIC, and requests consumed off
	// the socket. fed−consumed is the in-flight window.
	fed      int64
	consumed int64

	// Storage protocol: cumulative fetch requests/acks and writebacks;
	// fetchQ holds connections awaiting their fetch, FIFO.
	fetchReq int64
	fetchAck int64
	wbReq    int64
	fetchQ   sim.Ring[int]

	// Per-server lock (flavor-dependent wait accounting).
	lockFreeAt     sim.Cycles
	lockWaits      uint64
	lockWaitCycles uint64

	sessions map[int]*session
	free     sim.FreeList[session]

	submitted uint64
	completed uint64
	closed    uint64
	sojourn   *metrics.Histogram
}

// lbState is the load balancer's request-tracking state.
type lbState struct {
	reqT0     map[int]sim.Cycles // in-flight request → admission cycle
	connLeft  map[int]int        // open connection → replies outstanding
	inFlight  []int              // per server
	replySeen []int64            // per server, reply-ring consumption

	generated    uint64
	admitted     uint64
	refusedReqs  uint64
	refusedConns uint64
	completedReq uint64
	open         int
	openPeak     int
	// lastDone is the cycle of the latest completion. Checkpoints do not
	// carry it: a restore sets it to the restored clock, and the next
	// completion corrects it, so a cell restored after its last completion
	// reports a lower GoodputKRPS than the straight run (DESIGN.md §13).
	lastDone sim.Cycles

	lat *metrics.Histogram
}

// storState is the storage tier's cursor and op counters.
type storState struct {
	fetchSeen []int64
	wbSeen    []int64
	cursor    int
	fetchOps  uint64
	wbOps     uint64
}

// Cluster is one built serving cell.
type Cluster struct {
	cfg Config
	m   *machine.Machine

	lbShard   sim.ShardID
	storShard sim.ShardID

	lbKernel *kernel.Nocs
	lbStack  *netstack.Stack
	lbNIC    *device.NIC

	src        *workload.Source
	arrPoisson *workload.PoissonArrivals
	arrPareto  *workload.ParetoArrivals
	svcRNG     *sim.RNG

	// pending is the next arrival, already drawn; arrH its live event, with
	// arrEv as the body of every arrival.
	pending     workload.Request
	havePending bool
	arrEv       arrivalEv
	arrH        sim.Handle
	arrLive     bool
	lastArrival sim.Cycles

	wireSeq      []int64 // per server, request wire sequence (LB shard)
	replyWireSeq []int64 // per server, reply wire sequence (app shards)

	apps []*appServer
	lb   lbState
	stor storState

	fatal error
}

// total is the request count the source will emit.
func (c *Cluster) total() int { return c.cfg.Conns * reqsPerConn }

// New builds a serving cell. Two calls with equal configs build identical
// clusters — the property the determinism oracle and snapshot restore both
// lean on.
func New(cfg Config) (*Cluster, error) {
	cfg.fill()
	if err := cfg.check(); err != nil {
		return nil, err
	}

	nCores := cfg.AppServers + 2
	m := machine.New(
		machine.WithName(fmt.Sprintf("serve-%s-%s", cfg.Flavor, cfg.Arrival)),
		machine.WithCores(nCores),
		machine.WithShards(nCores),
		machine.WithWorkers(cfg.Workers),
		machine.WithLookahead(lookahead),
		machine.WithSMTSlots(2),
	)

	c := &Cluster{
		cfg:          cfg,
		m:            m,
		lbShard:      m.ShardOfCore(0),
		storShard:    m.ShardOfCore(nCores - 1),
		wireSeq:      make([]int64, cfg.AppServers),
		replyWireSeq: make([]int64, cfg.AppServers),
	}
	c.arrEv.c = c
	c.lb = lbState{
		reqT0:     make(map[int]sim.Cycles),
		connLeft:  make(map[int]int),
		inFlight:  make([]int, cfg.AppServers),
		replySeen: make([]int64, cfg.AppServers),
		lat:       metrics.NewHistogram(),
	}
	c.stor = storState{
		fetchSeen: make([]int64, cfg.AppServers),
		wbSeen:    make([]int64, cfg.AppServers),
	}

	// Workload: arrival gaps sized so offered load lands on the app tier's
	// AppServers×slots capacity (MeanForLoad accepts overload loads).
	root := sim.NewRNG(cfg.Seed)
	arrRNG, svcRNG := root.Split(), root.Split()
	c.svcRNG = svcRNG
	svc := workload.NewBimodal(shortDemand, longDemand, pShort, svcRNG)
	meanGap := workload.MeanForLoad(cfg.Load, svc.Mean(), cfg.AppServers*slots)
	var arr workload.Arrivals
	switch cfg.Arrival {
	case ArrivalPoisson:
		c.arrPoisson = workload.NewPoissonArrivals(meanGap, arrRNG)
		arr = c.arrPoisson
	case ArrivalPareto:
		c.arrPareto = workload.NewParetoArrivals(meanGap, paretoAlpha, arrRNG)
		arr = c.arrPareto
	}
	c.src = workload.NewSource(startCycle, arr, svc)

	if err := c.buildLB(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.AppServers; i++ {
		a, err := c.buildApp(i)
		if err != nil {
			return nil, err
		}
		c.apps = append(c.apps, a)
	}
	if err := c.buildStorage(); err != nil {
		return nil, err
	}

	// Snapshot composition: every component registers with the machine so a
	// mid-overload cluster checkpoints and restores byte-identically.
	m.AttachSnapshotter("serve", c.lbShard, c)
	m.AttachSnapshotter("lb/kernel", c.lbShard, c.lbKernel)
	m.AttachSnapshotter("lb/stack", c.lbShard, c.lbStack)
	for i, a := range c.apps {
		m.AttachSnapshotter(fmt.Sprintf("app%d/kernel", i), a.shard, a.k)
		m.AttachSnapshotter(fmt.Sprintf("app%d/stack", i), a.shard, a.stack)
		m.AttachSnapshotter(fmt.Sprintf("app%d/sched", i), a.shard, a.sched.(snapshot.Codec))
		m.AttachSnapshotter(fmt.Sprintf("app%d/store", i), a.shard, a.store)
	}

	// First arrival.
	c.pending = c.src.Next()
	c.havePending = true
	c.scheduleArrival()

	return c, nil
}

func c64(v int) int64 { return int64(v) }

// ---- load balancer ----

func (c *Cluster) buildLB() error {
	k := kernel.NewNocs(c.m.Core(0))
	c.lbKernel = k
	nic, err := c.m.NewNICOn(c.lbShard, device.NICConfig{
		RingBase: nicRingBase, BufBase: nicBufBase,
		TailAddr: nicTail, HeadAddr: nicHead,
		TXRingBase: nicTXRing, TXDoorbell: nicTXDoor, TXCompAddr: nicTXComp,
		TXCycles: 100, DMACycles: 100,
	}, device.Signal{})
	if err != nil {
		return err
	}
	nic.OnTransmit = c.requestWire
	c.lbNIC = nic
	st, err := netstack.New(k, nic, netstack.Config{
		SocketBase: stackSockBase, BufBase: stackBufBase, SendMailbox: stackMailbox,
		PerPacket:   lbPerPacket,
		TXStageBase: stackTXStage, TXStageEntries: 256,
	})
	if err != nil {
		return err
	}
	c.lbStack = st

	// Reply collector: drains the per-server reply rings the app tier's
	// wire writes into, closing the end-to-end latency measurement.
	watch := make([]int64, c.cfg.AppServers)
	for i := range watch {
		watch[i] = replyDoorAddr(i)
	}
	_, err = k.SpawnService("lb-replies", func() []int64 { return watch },
		func(*hwthread.Context) sim.Cycles { return c.drainReplies() })
	return err
}

func replyDoorAddr(srv int) int64 { return replyDoorBase + int64(srv)*8 }
func replySlotAddr(srv int, seq int64) int64 {
	return replyRingBase + int64(srv)*replyRingStride + (seq%replySlots)*8
}

// requestWire is the LB NIC's transmit hook: one packet becomes a slot
// write plus a doorbell bump in the target app server's request ring. Both
// writes share the wire delay; same-source cross-shard sends deliver in
// order, so the doorbell never overtakes its slot.
func (c *Cluster) requestWire(payload []int64) {
	w := payload[2]
	srv := int((w >> demandBits) / reqsPerConn % c64(c.cfg.AppServers))
	seq := c.wireSeq[srv]
	to := c.apps[srv].shard
	c.m.RemoteWrite(c.lbShard, to, wireRingBase+(seq%wireSlots)*8, w, wireDelay)
	c.m.RemoteWrite(c.lbShard, to, wireDoorbell, seq+1, wireDelay)
	c.wireSeq[srv] = seq + 1
}

// drainReplies runs on the LB's reply-collector service thread.
func (c *Cluster) drainReplies() sim.Cycles {
	core := c.lbKernel.Core()
	now := core.Shard().Now()
	var cost sim.Cycles
	for srv := 0; srv < c.cfg.AppServers; srv++ {
		db := core.ReadWord(replyDoorAddr(srv))
		for c.lb.replySeen[srv] < db {
			w := core.ReadWord(replySlotAddr(srv, c.lb.replySeen[srv]))
			c.lb.replySeen[srv]++
			reqID := int(w)
			t0, ok := c.lb.reqT0[reqID]
			if !ok {
				c.fail(fmt.Errorf("serve: reply for unknown request %d", reqID))
				return cost
			}
			delete(c.lb.reqT0, reqID)
			c.lb.lat.RecordCycles(now - t0)
			c.lb.completedReq++
			c.lb.lastDone = now
			c.lb.inFlight[srv]--
			conn := reqID / reqsPerConn
			if left := c.lb.connLeft[conn] - 1; left == 0 {
				delete(c.lb.connLeft, conn)
				c.lb.open--
			} else {
				c.lb.connLeft[conn] = left
			}
			cost += replyCost
		}
	}
	return cost
}

// ---- arrival event ----

// arrivalEv is the serve-owned arrival event body. It carries only the
// cluster, and at most one arrival is queued at a time, so one body serves
// them all.
type arrivalEv struct{ c *Cluster }

func (e *arrivalEv) OnEvent() { e.c.onArrival() }

func (c *Cluster) scheduleArrival() {
	c.arrH = c.m.Shard(c.lbShard).AtCallback(c.pending.Arrival, "serve-arrival", &c.arrEv)
	c.arrLive = true
}

// onArrival admits or refuses one request and re-arms for the next. The
// admission decision is per connection, made at its first request: a full
// per-server window or a saturated uplink refuses the connection, and every
// one of its requests counts refused as it arrives — so
// generated == completed + refused + in-flight holds request-for-request.
func (c *Cluster) onArrival() {
	r := c.pending
	now := r.Arrival
	c.lb.generated++
	reqID := r.ID
	conn := reqID / reqsPerConn
	srv := conn % c.cfg.AppServers

	admit := false
	if reqID%reqsPerConn == 0 {
		_, backlog, _ := c.lbStack.TxQueue()
		if c.lb.inFlight[srv] < c.cfg.Window && backlog < refuseBacklog {
			admit = true
			c.lb.connLeft[conn] = reqsPerConn
			c.lb.open++
			if c.lb.open > c.lb.openPeak {
				c.lb.openPeak = c.lb.open
			}
		} else {
			c.lb.refusedConns++
		}
	} else {
		_, admit = c.lb.connLeft[conn]
	}

	if admit {
		c.lb.admitted++
		c.lb.inFlight[srv]++
		c.lb.reqT0[reqID] = now
		d := int64(r.Demand)
		if d > demandMask {
			d = demandMask
		}
		p := [...]int64{appReqPort, lbPort, c64(reqID)<<demandBits | d}
		c.lbStack.SendAsync(p[:])
	} else {
		c.lb.refusedReqs++
	}

	if c.src.Emitted() < c.total() {
		c.pending = c.src.Next()
		c.scheduleArrival()
	} else {
		c.havePending = false
		c.arrLive = false
		c.lastArrival = now
	}
}

// ---- app servers ----

func storFetchAddr(srv int) int64 { return storFetchBase + int64(srv)*8 }
func storWBAddr(srv int) int64    { return storWBBase + int64(srv)*8 }

func (c *Cluster) buildApp(i int) (*appServer, error) {
	coreIdx := 1 + i
	a := &appServer{
		cl:       c,
		idx:      i,
		shard:    c.m.ShardOfCore(coreIdx),
		sessions: make(map[int]*session),
		sojourn:  metrics.NewHistogram(),
	}
	a.k = kernel.NewNocs(c.m.Core(coreIdx))
	nic, err := c.m.NewNICOn(a.shard, device.NICConfig{
		RingBase: nicRingBase, BufBase: nicBufBase,
		TailAddr: nicTail, HeadAddr: nicHead,
		TXRingBase: nicTXRing, TXDoorbell: nicTXDoor, TXCompAddr: nicTXComp,
		RingEntries: 512,
	}, device.Signal{})
	if err != nil {
		return nil, err
	}
	nic.OnTransmit = a.replyWire
	a.nic = nic
	st, err := netstack.New(a.k, nic, netstack.Config{
		SocketBase: stackSockBase, BufBase: stackBufBase, SendMailbox: stackMailbox,
		RingEntries: 32, PerPacket: appPerPacket,
		TXStageBase: stackTXStage, TXStageEntries: 64,
	})
	if err != nil {
		return nil, err
	}
	a.stack = st
	if a.sock, err = st.Bind(appReqPort); err != nil {
		return nil, err
	}

	a.store = statestore.New(statestore.Config{Prefetch: true})

	eng := c.m.Shard(a.shard)
	switch c.cfg.Flavor {
	case FlavorNocs:
		a.sched = kernel.NewPS(eng, slots, nocsOverhead, a.onComplete)
	case FlavorLegacy:
		a.sched = kernel.NewFCFS(eng, slots, legacyOverhead, a.onComplete)
	}

	a.watch = []int64{wireDoorbell, a.sock.DoorbellAddr(), fetchAckAddr}
	if _, err := a.k.SpawnService("app-worker", func() []int64 { return a.watch },
		func(*hwthread.Context) sim.Cycles { return a.pass() }); err != nil {
		return nil, err
	}
	return a, nil
}

// replyWire is the app NIC's transmit hook: replies cross back to the LB's
// per-server reply ring.
func (a *appServer) replyWire(payload []int64) {
	c := a.cl
	w := payload[2]
	seq := c.replyWireSeq[a.idx]
	c.m.RemoteWrite(a.shard, c.lbShard, replySlotAddr(a.idx, seq), w, wireDelay)
	c.m.RemoteWrite(a.shard, c.lbShard, replyDoorAddr(a.idx), seq+1, wireDelay)
	c.replyWireSeq[a.idx] = seq + 1
}

// pass is the app service body: acknowledge storage fetches, drain the
// request socket, then feed wire packets into the NIC.
func (a *appServer) pass() sim.Cycles {
	var cost sim.Cycles
	cost += a.drainAcks()
	cost += a.drainSocket()
	cost += a.feed()
	return cost
}

// drainAcks completes storage fetches: the storage tier's ack counter
// matches the per-server fetch FIFO, so each ack readies the next waiting
// connection and submits its queued requests.
func (a *appServer) drainAcks() sim.Cycles {
	core := a.k.Core()
	db := core.ReadWord(fetchAckAddr)
	var cost sim.Cycles
	for a.fetchAck < db {
		if a.fetchQ.Len() == 0 {
			a.cl.fail(fmt.Errorf("serve: app %d got fetch ack with empty fetch queue", a.idx))
			return cost
		}
		conn := a.fetchQ.Pop()
		a.fetchAck++
		sess := a.sessions[conn]
		if sess == nil {
			a.cl.fail(fmt.Errorf("serve: app %d fetch ack for unknown conn %d", a.idx, conn))
			return cost
		}
		sess.ready = true
		for _, w := range sess.waiting {
			a.submit(w)
		}
		sess.waiting = sess.waiting[:0]
		cost += ackCost
	}
	return cost
}

// drainSocket consumes demuxed requests off the stack's socket ring.
func (a *appServer) drainSocket() sim.Cycles {
	var cost sim.Cycles
	for {
		n, ok := a.sock.RecvInto(a.pkt[:])
		if !ok {
			break
		}
		a.consumed++
		if n < 3 {
			a.cl.fail(fmt.Errorf("serve: app %d malformed request packet (%d words)", a.idx, n))
			return cost
		}
		cost += parseCost
		a.handleRequest(a.pkt[2])
	}
	return cost
}

// handleRequest opens the session (fetching its state from the storage
// tier) or submits the request if the session is ready.
func (a *appServer) handleRequest(w int64) {
	conn := int(w>>demandBits) / reqsPerConn
	sess := a.sessions[conn]
	if sess == nil {
		sess = a.free.Get()
		*sess = session{waiting: sess.waiting[:0]}
		a.sessions[conn] = sess
		if err := a.store.Register(conn, sessionBytes); err != nil {
			a.cl.fail(fmt.Errorf("serve: app %d session register: %w", a.idx, err))
			return
		}
		a.fetchQ.Push(conn)
		a.fetchReq++
		a.cl.m.RemoteWrite(a.shard, a.cl.storShard, storFetchAddr(a.idx), a.fetchReq, wireDelay)
	}
	if sess.ready {
		a.submit(w)
	} else {
		sess.waiting = append(sess.waiting, w)
	}
}

// submit runs the request through session-state access and the per-server
// lock, then hands it to the scheduler flavor. A contended lock is where the
// flavors diverge: the nocs flavor parks the waiter — its arrival is simply
// delayed to the grant with no slot burned — while the legacy flavor folds
// the wait into demand, burning a server slot for the whole spin, plus a
// futex-style wake on handoff.
func (a *appServer) submit(w int64) {
	cfg := &a.cl.cfg
	reqID := int(w >> demandBits)
	conn := reqID / reqsPerConn
	sess := a.sessions[conn]
	sess.active++

	now := a.k.Core().Shard().Now()
	startCost, err := a.store.Start(conn, now)
	if err != nil {
		a.cl.fail(fmt.Errorf("serve: app %d session start: %w", a.idx, err))
		return
	}
	demand := sim.Cycles(w&demandMask) + startCost

	grant := now
	var wait sim.Cycles
	if a.lockFreeAt > now {
		grant = a.lockFreeAt
		wait = grant - now
		a.lockWaits++
		a.lockWaitCycles += uint64(wait)
	}
	hold := lockHold
	arrival := now
	switch cfg.Flavor {
	case FlavorNocs:
		if wait > 0 {
			hold += nocsHandoff
		}
		arrival = grant
		demand += hold
	case FlavorLegacy:
		if wait > 0 {
			hold += legacyHandoff
		}
		demand += wait + hold
	}
	a.lockFreeAt = grant + hold

	a.sched.Submit(workload.Request{ID: reqID, Arrival: arrival, Demand: demand})
	a.submitted++
}

// onComplete replies and, on a connection's last completion, writes the
// session back to the storage tier and closes it.
func (a *appServer) onComplete(comp kernel.Completion) {
	reqID := comp.Req.ID
	conn := reqID / reqsPerConn
	sess := a.sessions[conn]
	if sess == nil {
		a.cl.fail(fmt.Errorf("serve: app %d completion for closed conn %d", a.idx, conn))
		return
	}
	sess.active--
	a.completed++
	a.sojourn.RecordCycles(comp.Latency)
	p := [...]int64{lbPort, appReqPort, int64(reqID)}
	a.stack.SendAsync(p[:])
	if reqID%reqsPerConn == reqsPerConn-1 {
		sess.seenLast = true
	}
	if sess.seenLast && sess.active == 0 && len(sess.waiting) == 0 {
		a.store.Remove(conn)
		delete(a.sessions, conn)
		a.free.Put(sess)
		a.closed++
		a.wbReq++
		a.cl.m.RemoteWrite(a.shard, a.cl.storShard, storWBAddr(a.idx), a.wbReq, wireDelay)
	}
}

// feed moves wire packets into the local NIC, bounded by feederWindow so
// the RX ring can never overrun: a full window defers — the packet stays in
// the wire ring — and the next socket-consumption wake retries.
func (a *appServer) feed() sim.Cycles {
	core := a.k.Core()
	db := core.ReadWord(wireDoorbell)
	var cost sim.Cycles
	for a.fed < db && a.fed-a.consumed < int64(feederWindow) {
		p := [...]int64{appReqPort, lbPort, core.ReadWord(wireRingBase + (a.fed%wireSlots)*8)}
		a.nic.Deliver(p[:])
		a.fed++
		cost += feedCost
	}
	return cost
}

// ---- storage tier ----

// buildStorage spawns the storage service: one durable-store head serving
// the whole app tier, one operation at a time — fetches (session open,
// acknowledged back to the requesting server) and writebacks (session
// close, fire-and-forget). Per-server FIFO ordering makes payloads
// unnecessary: counters carry the protocol.
func (c *Cluster) buildStorage() error {
	k := kernel.NewNocs(c.m.Core(c.cfg.AppServers + 1))
	watch := make([]int64, 0, 2*c.cfg.AppServers)
	for i := 0; i < c.cfg.AppServers; i++ {
		watch = append(watch, storFetchAddr(i), storWBAddr(i))
	}
	m := c.m
	core := k.Core()
	fn := func(*hwthread.Context) sim.Cycles {
		for i := 0; i < c.cfg.AppServers; i++ {
			srv := (c.stor.cursor + i) % c.cfg.AppServers
			if c.stor.fetchSeen[srv] < core.ReadWord(storFetchAddr(srv)) {
				c.stor.fetchSeen[srv]++
				c.stor.fetchOps++
				c.stor.cursor = (srv + 1) % c.cfg.AppServers
				// The ack departs after the fetch completes.
				m.RemoteWrite(c.storShard, c.apps[srv].shard, fetchAckAddr,
					c.stor.fetchSeen[srv], fetchCost+wireDelay)
				return fetchCost
			}
			if c.stor.wbSeen[srv] < core.ReadWord(storWBAddr(srv)) {
				c.stor.wbSeen[srv]++
				c.stor.wbOps++
				c.stor.cursor = (srv + 1) % c.cfg.AppServers
				return wbCost
			}
		}
		return 0
	}
	m.AttachSnapshotter("stor/kernel", c.storShard, k)
	_, err := k.SpawnService("storage", func() []int64 { return watch }, fn)
	return err
}

// ---- run loop ----

func (c *Cluster) fail(err error) {
	if c.fatal == nil {
		c.fatal = err
	}
}

// Machine exposes the underlying machine (snapshot tests drive it).
func (c *Cluster) Machine() *machine.Machine { return c.m }

// done reports whether the cell has fully drained: every request generated
// and accounted for, every closed session written back.
func (c *Cluster) done() bool {
	if c.src.Emitted() < c.total() || len(c.lb.reqT0) != 0 {
		return false
	}
	var fetchReq, wbReq int64
	for _, a := range c.apps {
		fetchReq += a.fetchReq
		wbReq += a.wbReq
	}
	return c.stor.fetchOps == uint64(fetchReq) && c.stor.wbOps == uint64(wbReq)
}

// Run drives the cell to completion: all arrivals, then drain. It fails if
// the pipeline stalls (a lost packet anywhere shows up as requests that
// never drain) or any conservation invariant breaks.
func (c *Cluster) Run() error {
	for {
		prev := c.m.Now()
		// Chunk deadlines are absolute multiples of runChunk, so a run
		// resumed from a checkpoint drains at the same quantized horizon
		// as a straight-through run.
		c.m.RunUntil((prev/runChunk + 1) * runChunk)
		if err := c.m.Fatal(); err != nil {
			return err
		}
		if c.fatal != nil {
			return c.fatal
		}
		if err := c.Conservation(); err != nil {
			return err
		}
		if c.done() {
			break
		}
		if c.m.Now() == prev && !c.havePending {
			return fmt.Errorf("serve: pipeline wedged — no events left with %d requests in flight", len(c.lb.reqT0))
		}
		if !c.havePending && c.m.Now() > c.lastArrival+drainSlack {
			return fmt.Errorf("serve: drain stalled — %d requests still in flight %d cycles after the last arrival",
				len(c.lb.reqT0), c.m.Now()-c.lastArrival)
		}
	}
	return c.audit()
}

// Conservation checks the serving invariant midstream: every generated
// request is exactly one of completed, refused, or in flight. The in-flight
// count is the LB's request table — an independent source from the
// counters — so pipeline leaks can't cancel out.
func (c *Cluster) Conservation() error {
	gen := c.lb.generated
	acc := c.lb.completedReq + c.lb.refusedReqs + uint64(len(c.lb.reqT0))
	if gen != acc {
		return fmt.Errorf("serve: CONSERVATION VIOLATION — generated %d != completed %d + refused %d + inflight %d",
			gen, c.lb.completedReq, c.lb.refusedReqs, len(c.lb.reqT0))
	}
	return nil
}

// audit runs the end-of-cell accounting: conservation with zero in-flight,
// zero drops at every ring, balanced storage protocol, and empty stores.
func (c *Cluster) audit() error {
	if err := c.Conservation(); err != nil {
		return err
	}
	if got := c.lb.completedReq + c.lb.refusedReqs; got != uint64(c.total()) {
		return fmt.Errorf("serve: drained cell accounts for %d of %d requests", got, c.total())
	}
	if _, dropped := c.lbNIC.Stats(); dropped != 0 {
		return fmt.Errorf("serve: LB NIC dropped %d packets", dropped)
	}
	for i, a := range c.apps {
		if _, dropped := a.nic.Stats(); dropped != 0 {
			return fmt.Errorf("serve: app %d NIC dropped %d packets", i, dropped)
		}
		if _, stackDropped, _ := a.stack.Stats(); stackDropped != 0 {
			return fmt.Errorf("serve: app %d stack dropped %d packets", i, stackDropped)
		}
		if live := a.store.Live(); live != 0 {
			return fmt.Errorf("serve: app %d store still holds %d sessions after drain", i, live)
		}
		if len(a.sessions) != 0 {
			return fmt.Errorf("serve: app %d still holds %d sessions after drain", i, len(a.sessions))
		}
		if a.fetchReq != a.fetchAck {
			return fmt.Errorf("serve: app %d fetch protocol unbalanced (%d req, %d ack)", i, a.fetchReq, a.fetchAck)
		}
	}
	return nil
}

// ---- reporting ----

// Stats is the cell's machine-readable outcome.
type Stats struct {
	Generated, Completed, Refused uint64
	RefusedConns                  uint64
	OpenPeak                      int
	P50, P99, P999                int64
	MeanLat                       float64
	// Horizon is the clock after drain, a multiple of the run chunk.
	Horizon sim.Cycles
	// GoodputKRPS is completed requests per million cycles up to the last
	// completion ×1000 (i.e. thousands of requests per second at 1 GHz-cycle
	// scale).
	GoodputKRPS float64
	LockWaits   uint64
	SendBusy    uint64
	RingStalls  uint64
	PumpStalls  uint64
	DRAMStarts  uint64
	FetchOps    uint64
	WBOps       uint64
}

// CollectStats summarizes a drained cell.
func (c *Cluster) CollectStats() Stats {
	p50, p99, p999, mean := c.lb.lat.Summary()
	s := Stats{
		Generated:    c.lb.generated,
		Completed:    c.lb.completedReq,
		Refused:      c.lb.refusedReqs,
		RefusedConns: c.lb.refusedConns,
		OpenPeak:     c.lb.openPeak,
		P50:          p50, P99: p99, P999: p999,
		MeanLat:  mean,
		Horizon:  c.m.Now(),
		FetchOps: c.stor.fetchOps,
		WBOps:    c.stor.wbOps,
	}
	if c.lb.lastDone > 0 {
		s.GoodputKRPS = float64(s.Completed) / (float64(c.lb.lastDone) / 1e6)
	}
	for _, a := range c.apps {
		ringStalls, sendBusy := a.stack.Backpressure()
		_, _, pumpStalls := a.stack.TxQueue()
		s.LockWaits += a.lockWaits
		s.SendBusy += sendBusy
		s.RingStalls += ringStalls
		s.PumpStalls += pumpStalls
		_, _, _, _, dram := a.store.Stats()
		s.DRAMStarts += dram
	}
	lbStalls, lbBusy := c.lbStack.Backpressure()
	_, _, lbPump := c.lbStack.TxQueue()
	s.SendBusy += lbBusy
	s.RingStalls += lbStalls
	s.PumpStalls += lbPump
	return s
}

// Summary renders the cell's complete observable state as one string;
// byte-equality between the serial oracle and the sharded run is the
// determinism check.
func (c *Cluster) Summary() string {
	var b strings.Builder
	cfg := &c.cfg
	fmt.Fprintf(&b, "serve flavor=%s arrival=%s load=%.2f conns=%d reqs=%d servers=%d slots=%d seed=%d\n",
		cfg.Flavor, cfg.Arrival, cfg.Load, cfg.Conns, reqsPerConn, cfg.AppServers, slots, cfg.Seed)
	fmt.Fprintf(&b, "now=%d gen=%d admit=%d done=%d refused=%d refusedConns=%d inflight=%d open=%d peak=%d\n",
		c.m.Now(), c.lb.generated, c.lb.admitted, c.lb.completedReq, c.lb.refusedReqs,
		c.lb.refusedConns, len(c.lb.reqT0), c.lb.open, c.lb.openPeak)
	p50, p99, p999, mean := c.lb.lat.Summary()
	fmt.Fprintf(&b, "lat n=%d p50=%d p99=%d p999=%d mean=%.3f max=%d\n",
		c.lb.lat.Count(), p50, p99, p999, mean, c.lb.lat.Max())
	lbRecv, lbDrop, lbSent := c.lbStack.Stats()
	lbStall, lbBusy := c.lbStack.Backpressure()
	lbQ, lbBack, lbPump := c.lbStack.TxQueue()
	fmt.Fprintf(&b, "lb stack recv=%d drop=%d sent=%d stalls=%d busy=%d txq=%d backlog=%d pump=%d retired=%d\n",
		lbRecv, lbDrop, lbSent, lbStall, lbBusy, lbQ, lbBack, lbPump, c.m.Core(0).Retired())
	for i, a := range c.apps {
		recv, drop, sent := a.stack.Stats()
		stalls, busy := a.stack.Backpressure()
		_, _, pump := a.stack.TxQueue()
		promo, demo, pre, preHit, dram := a.store.Stats()
		sp50, sp99, _, _ := a.sojourn.Summary()
		fmt.Fprintf(&b, "app%02d sub=%d done=%d closed=%d lockw=%d lockcyc=%d fed=%d cons=%d fetch=%d/%d wb=%d "+
			"recv=%d drop=%d sent=%d nacks=%d stalls=%d busy=%d pump=%d sess=%d live=%d "+
			"store=%d/%d/%d/%d/%d soj50=%d soj99=%d retired=%d\n",
			i, a.submitted, a.completed, a.closed, a.lockWaits, a.lockWaitCycles,
			a.fed, a.consumed, a.fetchReq, a.fetchAck, a.wbReq,
			recv, drop, sent, a.sock.Nacks(), stalls, busy, pump, len(a.sessions), a.store.Live(),
			promo, demo, pre, preHit, dram, sp50, sp99, c.m.Core(1+i).Retired())
	}
	fmt.Fprintf(&b, "storage fetch=%d wb=%d cursor=%d retired=%d\n",
		c.stor.fetchOps, c.stor.wbOps, c.stor.cursor, c.m.Core(c.cfg.AppServers+1).Retired())
	return b.String()
}
