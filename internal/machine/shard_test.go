package machine

import (
	"testing"

	"nocs/internal/device"
	"nocs/internal/mem"
	"nocs/internal/sim"
)

// TestTimeZeroDeviceCrossShardDelivery is the machine-level lookahead-horizon
// edge case (the crafted-spec companion of the sim-level tests and of
// TestBatchBoundaries in refmodel/diff): a device on shard 1 lands its
// first DMA write before any core has run, and shard 1 forwards a remote
// write toward shard 0 — which has no local events at all. Shard 0 must not
// be advanced past the undelivered cross-shard event; the write must land
// exactly once.
func TestTimeZeroDeviceCrossShardDelivery(t *testing.T) {
	const tail = 0x7000
	const landing = 0x7100
	for name, workers := range map[string]int{"serial": 1, "sharded": 2} {
		m := New(WithCores(2), WithShards(2), WithWorkers(workers),
			WithLookahead(500))
		// A NIC on shard 1 whose first packet lands at cycle 40 — well
		// inside the first lookahead window, scheduled before the run starts.
		nic, err := m.NewNICOn(1, device.NICConfig{
			RingBase: 0x10000, BufBase: 0x20000, TailAddr: tail, DMACycles: 40,
		}, device.Signal{})
		if err != nil {
			t.Fatal(err)
		}
		nic.Deliver([]int64{1})
		// Forward a write to shard 0 as the packet lands. The send happens
		// at cycle 40 on shard 1; arrival is 40+lookahead on a shard whose
		// queue is empty.
		var arrived []sim.Cycles
		m.MonitorOf(1).DMAVisible = true
		m.Shard(1).At(40, "fwd", func() {
			m.RemoteWrite(1, 0, landing, int64(m.Shard(1).Now()), 0)
		})
		m.Shard(0).At(40+500, "probe", func() {
			arrived = append(arrived, m.Shard(0).Now())
		})
		m.RunUntil(2000)
		if got := m.MemOf(0).Read(landing); got != 40 {
			t.Fatalf("%s: landing word = %d, want 40 (remote write lost or reordered)", name, got)
		}
		if got := m.MemOf(1).Read(tail); got != 1 {
			t.Fatalf("%s: RX tail = %d, want 1 (the packet never landed)", name, got)
		}
		if len(arrived) != 1 || arrived[0] != 540 {
			t.Fatalf("%s: probe at %v, want [540]", name, arrived)
		}
	}
}

// TestShardPartitioning checks the contiguous core→shard map and the
// per-shard ownership of memory and monitors.
func TestShardPartitioning(t *testing.T) {
	m := New(WithCores(8), WithShards(4))
	if m.Shards() != 4 {
		t.Fatalf("Shards() = %d", m.Shards())
	}
	want := []sim.ShardID{0, 0, 1, 1, 2, 2, 3, 3}
	for i, w := range want {
		if got := m.ShardOfCore(i); got != w {
			t.Fatalf("ShardOfCore(%d) = %d, want %d", i, got, w)
		}
		c := m.Core(i)
		if c.Mem() != m.MemOf(w) || c.Monitor() != m.MonitorOf(w) || c.Shard() != m.Shard(w) {
			t.Fatalf("core %d not wired to shard %d state", i, w)
		}
	}
	// Distinct shards share nothing.
	if m.MemOf(0) == m.MemOf(1) || m.MonitorOf(0) == m.MonitorOf(1) {
		t.Fatal("shards share state")
	}
	// Shard count clamps to core count; zero-value options give one shard.
	if New(WithCores(2), WithShards(16)).Shards() != 2 {
		t.Fatal("shard clamp")
	}
	if New().Shards() != 1 {
		t.Fatal("default shard count")
	}
}

// wakeProbe is a minimal monitor waiter recording its wake values.
type wakeProbe struct{ got []int64 }

func (w *wakeProbe) MonitorWake(addr, val int64, src mem.WriteSource) {
	w.got = append(w.got, val)
}

// TestRemoteWriteWakesMonitor: a RemoteWrite lands as a CPU-visible store on
// the target shard, so it must trigger monitor wakeups there like any local
// write.
func TestRemoteWriteWakesMonitor(t *testing.T) {
	m := New(WithCores(2), WithShards(2))
	const addr = 0x9000
	w := &wakeProbe{}
	m.MonitorOf(0).Arm(w, addr)
	if !m.MonitorOf(0).Wait(w) {
		t.Fatal("probe did not block in mwait")
	}
	m.Shard(1).At(10, "send", func() {
		m.RemoteWrite(1, 0, addr, 7, 0)
	})
	m.RunUntil(5000)
	if len(w.got) != 1 || w.got[0] != 7 {
		t.Fatalf("monitor on target shard saw %v, want [7]", w.got)
	}
	if got := m.MemOf(0).Read(addr); got != 7 {
		t.Fatalf("landing value = %d", got)
	}
}
