package serve

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"nocs/internal/device"
	"nocs/internal/mem"
	"nocs/internal/netstack"
	"nocs/internal/sim"
)

// smallConfig is a cell small enough for unit tests but big enough to push
// packets through every tier.
func smallConfig(flavor, arrival string, load float64) Config {
	return Config{
		AppServers: 4, Conns: 200,
		Load: load, Arrival: arrival, Flavor: flavor,
		Seed: 42, Workers: 1,
	}
}

func runCell(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestServeDrainsAndConserves: a moderate-load cell completes every request
// and the conservation invariant closes with zero refusals.
func TestServeDrainsAndConserves(t *testing.T) {
	c := runCell(t, smallConfig(FlavorNocs, ArrivalPoisson, 0.8))
	total := uint64(c.total())
	if c.lb.completedReq+c.lb.refusedReqs != total {
		t.Fatalf("completed %d + refused %d != generated %d",
			c.lb.completedReq, c.lb.refusedReqs, total)
	}
	if c.lb.completedReq == 0 {
		t.Fatal("no requests completed")
	}
	if got := c.lb.lat.Count(); got != c.lb.completedReq {
		t.Fatalf("latency histogram has %d samples, %d requests completed", got, c.lb.completedReq)
	}
	if c.stor.fetchOps == 0 || c.stor.wbOps == 0 {
		t.Fatalf("storage tier idle (fetch=%d wb=%d)", c.stor.fetchOps, c.stor.wbOps)
	}
	if c.stor.fetchOps != c.stor.wbOps {
		t.Fatalf("session opens %d != closes %d after drain", c.stor.fetchOps, c.stor.wbOps)
	}
}

// TestServeLegacyFlavor: the FCFS/context-switch flavor drains too, and its
// tail is worse than the nocs flavor's at equal load and seed — the paper's
// §4 serving claim in miniature.
func TestServeLegacyFlavor(t *testing.T) {
	nocs := runCell(t, smallConfig(FlavorNocs, ArrivalPoisson, 0.8))
	legacy := runCell(t, smallConfig(FlavorLegacy, ArrivalPoisson, 0.8))
	_, n99, _, _ := nocs.lb.lat.Summary()
	_, l99, _, _ := legacy.lb.lat.Summary()
	if l99 <= n99 {
		t.Fatalf("legacy p99 %d should exceed nocs p99 %d under bimodal service", l99, n99)
	}
}

// TestServeOverloadRefuses: load 1.3 must shed — refusals happen, and
// conservation still closes request-for-request.
func TestServeOverloadRefuses(t *testing.T) {
	cfg := smallConfig(FlavorNocs, ArrivalPoisson, 2.0)
	cfg.Conns = 2000
	cfg.Window = 32
	c := runCell(t, cfg)
	if c.lb.refusedReqs == 0 {
		t.Fatal("overload cell refused nothing — admission control never engaged")
	}
	if c.lb.completedReq == 0 {
		t.Fatal("overload cell completed nothing")
	}
	if c.lb.completedReq+c.lb.refusedReqs != uint64(c.total()) {
		t.Fatalf("conservation: %d + %d != %d", c.lb.completedReq, c.lb.refusedReqs, c.total())
	}
}

// TestServeParetoArrivals: bursty arrivals drive the backpressure path —
// socket-ring stalls or mailbox retries — and still conserve.
func TestServeParetoArrivals(t *testing.T) {
	cfg := smallConfig(FlavorNocs, ArrivalPareto, 1.1)
	cfg.Conns = 1000
	c := runCell(t, cfg)
	if c.lb.completedReq+c.lb.refusedReqs != uint64(c.total()) {
		t.Fatalf("conservation: %d + %d != %d", c.lb.completedReq, c.lb.refusedReqs, c.total())
	}
	s := c.CollectStats()
	if s.SendBusy == 0 && s.RingStalls == 0 && s.PumpStalls == 0 && s.LockWaits == 0 {
		t.Fatal("bursty overload never touched a backpressure path — the cell is not exercising what it claims")
	}
}

// TestServeSerialShardedIdentity: the same cell under the serial oracle and
// the sharded scheduler must produce byte-identical summaries.
func TestServeSerialShardedIdentity(t *testing.T) {
	for _, flavor := range []string{FlavorNocs, FlavorLegacy} {
		cfg := smallConfig(flavor, ArrivalPareto, 1.1)
		cfg.Conns = 500
		ser := runCell(t, cfg)
		cfg.Workers = 4
		par := runCell(t, cfg)
		a, b := ser.Summary(), par.Summary()
		if a != b {
			t.Fatalf("%s: serial and sharded summaries differ:\n--- serial\n%s\n--- sharded\n%s", flavor, a, b)
		}
	}
}

// probeOverload runs a cluster in small steps until it is visibly
// mid-overload: refusals recorded, requests in flight across the tiers.
func probeOverload(t *testing.T, c *Cluster) {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		c.m.RunUntil(c.m.Now() + 5000)
		if c.fatal != nil {
			t.Fatal(c.fatal)
		}
		if err := c.Conservation(); err != nil {
			t.Fatal(err)
		}
		if c.lb.refusedReqs > 0 && len(c.lb.reqT0) > 100 && c.src.Emitted() < c.total() {
			return
		}
	}
	t.Fatalf("never reached mid-overload (refused=%d inflight=%d emitted=%d)",
		c.lb.refusedReqs, len(c.lb.reqT0), c.src.Emitted())
}

// TestServeSnapshotMidOverload checkpoints a serving cell in the middle of
// an overload episode — requests queued at every tier, refusals underway,
// send backoffs and scheduler arrivals in flight — restores it into a
// freshly built cluster, and requires (a) an immediate re-snapshot to be
// byte-identical and (b) the restored run to drain to the exact final state
// of the straight-through run.
func TestServeSnapshotMidOverload(t *testing.T) {
	cfg := smallConfig(FlavorNocs, ArrivalPareto, 2.0)
	cfg.Conns = 800
	cfg.Window = 32

	// Reference run, straight through.
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	want := ref.Summary()

	// Checkpointed run: stop mid-overload and snapshot.
	src, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	probeOverload(t, src)
	var buf bytes.Buffer
	if err := src.m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := src.Run(); err != nil {
		t.Fatal(err)
	}
	if got := src.Summary(); got != want {
		t.Fatalf("checkpointed run diverged from reference:\n got:\n%s\nwant:\n%s", got, want)
	}

	// Restore into a fresh, identically built cluster.
	dst, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.m.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := dst.m.Snapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("restore+snapshot is not byte-identical: %d vs %d bytes", buf.Len(), buf2.Len())
	}
	if err := dst.Run(); err != nil {
		t.Fatal(err)
	}
	if got := dst.Summary(); got != want {
		t.Fatalf("restored run diverged from reference:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestServeConfigValidation: a config no cell can be built from — an
// unknown flavor or arrival process, a Load that is not a positive finite
// number, a negative count, a pool past maxAppServers — fails New up front
// with ErrConfig naming the field, instead of panicking, running or
// exhausting host memory.
func TestServeConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		want string
		cfg  Config
	}{
		{"flavor", Config{Flavor: "mystery"}},
		{"arrival", Config{Arrival: "uniform"}},
		{"Load", Config{Load: -1}},
		{"Load", Config{Load: math.NaN()}},
		{"Load", Config{Load: math.Inf(1)}},
		{"Conns", Config{Conns: -5}},
		{"AppServers", Config{AppServers: -1}},
		{"AppServers", Config{AppServers: maxAppServers + 1}},
		{"AppServers", Config{AppServers: 1 << 40}},
		{"Window", Config{Window: -1}},
	} {
		_, err := New(tc.cfg)
		if !errors.Is(err, ErrConfig) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: want ErrConfig naming %s, got %v", tc.cfg, tc.want, err)
		}
	}
}

// inFlight counts, from each component's public counters, the recycled
// event bodies the cell has queued: stack events (a posted send whose NIC
// doorbell is still on its way, or an outbox pump, which is armed whenever
// the outbox is not empty), NIC transmits and NIC arrivals.
func inFlight(c *Cluster) (stackEvs, txs, rxs int) {
	count := func(st *netstack.Stack, nic *device.NIC) {
		_, _, sent := st.Stats()
		_, backlog, _ := st.TxQueue()
		started := nic.MMIORead(nicTXDoor)
		stackEvs += int(int64(sent)-started) + min(backlog, 1)
		txs += int(started - int64(nic.Transmitted()))
	}
	count(c.lbStack, c.lbNIC)
	for _, a := range c.apps {
		count(a.stack, a.nic)
		delivered, dropped := a.nic.Stats()
		rxs += int(a.fed - int64(delivered+dropped))
	}
	return stackEvs, txs, rxs
}

// TestServeSnapshotPooledBodies checkpoints a two-worker cell while stack
// events, NIC transmits and NIC arrivals are all in flight, and restores it
// into a cell that has already drained, so every free list the restore
// takes bodies from holds the bodies of a whole run. The restored cell must
// re-encode to the same bytes and finish with the Summary of the source
// cell run on from the checkpoint: the source is stepped 100 cycles at a
// time to find the instant, and such steps are not the same execution as
// one straight Run, so the straight run is no reference here.
func TestServeSnapshotPooledBodies(t *testing.T) {
	cfg := smallConfig(FlavorNocs, ArrivalPoisson, 1.3)
	cfg.Workers = 2

	src, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for {
		src.m.RunUntil(src.m.Now() + 100)
		if ev, tx, rx := inFlight(src); ev > 0 && tx > 0 && rx > 0 {
			break
		}
		if src.fatal != nil || src.done() {
			t.Fatalf("no instant with stack, TX and RX bodies all in flight (fatal %v)", src.fatal)
		}
	}
	var ckpt bytes.Buffer
	if err := src.m.Snapshot(&ckpt); err != nil {
		t.Fatal(err)
	}
	if err := src.Run(); err != nil {
		t.Fatal(err)
	}
	want := src.Summary()

	dst := runCell(t, cfg)
	if ev, tx, rx := inFlight(dst); ev != 0 || tx != 0 || rx != 0 {
		t.Fatalf("drained cell still has %d stack events, %d transmits, %d arrivals queued", ev, tx, rx)
	}
	if err := dst.m.Restore(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := dst.m.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ckpt.Bytes(), again.Bytes()) {
		t.Fatalf("restore into a drained cell re-encodes to %d bytes, checkpoint has %d", again.Len(), ckpt.Len())
	}
	if err := dst.Run(); err != nil {
		t.Fatal(err)
	}
	if got := dst.Summary(); got != want {
		t.Fatalf("restored run diverged from the source cell's:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestServeGoodputIsThroughput: goodput divides completions by the cycle of
// the last completion, not by the clock after drain, which Run rounds up to
// a whole run chunk. The test counts completions on its own, as the reply
// doorbell writes landing in the load balancer's memory (one per reply), and
// notes when the last one lands: the load balancer completes that reply as
// soon as its collector wakes and drains the ring, within replySlack cycles.
func TestServeGoodputIsThroughput(t *testing.T) {
	const replySlack = 1000
	for _, load := range []float64{0.8, 1.3} {
		cfg := smallConfig(FlavorNocs, ArrivalPoisson, load)
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var replies uint64
		var lastReply sim.Cycles
		lb := c.m.Shard(c.lbShard)
		c.m.Core(0).Mem().AddObserver(observerFunc(func(addr, _ int64, _ mem.WriteSource) {
			if addr >= replyDoorAddr(0) && addr <= replyDoorAddr(cfg.AppServers-1) {
				replies++
				lastReply = lb.Now()
			}
		}))
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		st := c.CollectStats()
		if replies != st.Completed {
			t.Fatalf("load %.1f: %d replies reached the load balancer, %d completed", load, replies, st.Completed)
		}
		lo := float64(replies) / (float64(lastReply+replySlack) / 1e6)
		hi := float64(replies) / (float64(lastReply) / 1e6)
		if st.GoodputKRPS < lo || st.GoodputKRPS > hi {
			t.Errorf("load %.1f: goodput %.2f, want %.2f–%.2f (%d replies, the last at cycle %d; clock after drain %d)",
				load, st.GoodputKRPS, lo, hi, replies, lastReply, st.Horizon)
		}
	}
}

type observerFunc func(addr, val int64, src mem.WriteSource)

func (f observerFunc) ObserveWrite(addr, val int64, src mem.WriteSource) { f(addr, val, src) }
