package machine

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"testing"

	"nocs/internal/asm"
	"nocs/internal/core"
	"nocs/internal/device"
	"nocs/internal/faultinject"
	"nocs/internal/hwthread"
	"nocs/internal/isa"
	"nocs/internal/sim"
	"nocs/internal/snapshot"
)

// deviceMachine builds a single-core machine with a NIC and an SSD, plus a
// program that counts monitor wakeups on the NIC's RX tail. Tests put
// device events in flight by delivering packets and ringing the SSD.
func deviceMachine(t *testing.T) (*Machine, *device.NIC, *device.SSD) {
	t.Helper()
	m := New(WithThreads(4))
	nic, err := m.NewNIC(device.NICConfig{
		RingBase: 0x10000, BufBase: 0x20000, TailAddr: 0x30000,
	}, device.Signal{})
	if err != nil {
		t.Fatal(err)
	}
	ssd, err := m.NewSSD(device.SSDConfig{
		SQBase: 0x40000, CQBase: 0x50000,
		DoorbellAddr: 0x9000_0000, CQTailAddr: 0x60000,
		BaseLatency: 5000,
	}, device.Signal{})
	if err != nil {
		t.Fatal(err)
	}
	prog := asm.MustAssemble("rx-waiter", `
main:
	movi r1, 0x30000
	movi r3, 0
loop:
	monitor r1
	mwait
	addi r3, r3, 1
	jmp loop
`)
	if err := m.Core(0).BindProgram(0, prog, "main"); err != nil {
		t.Fatal(err)
	}
	if err := m.Core(0).BootStart(0); err != nil {
		t.Fatal(err)
	}
	return m, nic, ssd
}

// deviceFingerprint renders every observable outcome of the device workload.
func deviceFingerprint(m *Machine, nic *device.NIC, ssd *device.SSD) string {
	var b strings.Builder
	ctx := m.Core(0).Threads().Context(0)
	fmt.Fprintf(&b, "now=%d wakes=%d state=%d retired=%d\n",
		m.Now(), ctx.Regs.GPR[3], ctx.State, m.Core(0).Retired())
	d, dr := nic.Stats()
	fmt.Fprintf(&b, "nic delivered=%d dropped=%d tail=%d\n", d, dr, m.Mem().Read(0x30000))
	cid, status, ready := ssd.ReadCQE(0)
	fmt.Fprintf(&b, "ssd cqe=%d/%d/%v\n", cid, status, ready)
	w, i, drp := m.Monitor().Stats()
	wt, wd := m.Mem().Writes()
	fmt.Fprintf(&b, "monitor=%d/%d/%d mem=%d writes=%d/%d\n", w, i, drp, m.Mem().Read(0x20000), wt, wd)
	return b.String()
}

// TestSnapshotRoundTripWithDevices checkpoints a machine with a pending NIC
// RX DMA and an in-flight SSD completion, restores it into a freshly built
// machine, and requires (a) the restored machine to re-serialize to the
// identical bytes and (b) restore + run-to-end to land on the identical
// final state as running straight through.
func TestSnapshotRoundTripWithDevices(t *testing.T) {
	const checkpoint, horizon = 2000, 20_000

	m, nic, ssd := deviceMachine(t)
	m.RunUntil(checkpoint)
	// In-flight work at the checkpoint: an RX delivery still in the DMA
	// pipe and a submitted-but-uncompleted SSD command.
	nic.Deliver([]int64{42, 43})
	ssd.WriteSQE(m.Mem(), 0, device.OpRead, 0, 0, 9)
	m.Mem().Write(0x9000_0000, 1, 1) // ring doorbell (SrcCPU)
	m.RunUntil(checkpoint + 100)

	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snapBytes := buf.Bytes()

	m.RunUntil(horizon)
	want := deviceFingerprint(m, nic, ssd)

	// Restore into a fresh machine and require byte-stable re-serialization.
	m2, nic2, ssd2 := deviceMachine(t)
	if err := m2.Restore(bytes.NewReader(snapBytes)); err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := m2.Snapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapBytes, buf2.Bytes()) {
		t.Fatalf("snapshot not byte-stable across restore (%d vs %d bytes)", len(snapBytes), buf2.Len())
	}

	m2.RunUntil(horizon)
	if got := deviceFingerprint(m2, nic2, ssd2); got != want {
		t.Fatalf("restore + run diverged from straight-through:\n got: %s\nwant: %s", got, want)
	}
}

// TestSnapshotRestoreMidRunRewind restores a checkpoint into the SAME
// machine after it has run past the checkpoint — the warm-start fork shape:
// one warmed machine re-dispatched from a saved cycle. One packet has woken
// the RX waiter before the checkpoint; another and an SSD command are in
// flight at it.
func TestSnapshotRestoreMidRunRewind(t *testing.T) {
	m, nic, ssd := deviceMachine(t)
	m.RunUntil(1000)
	nic.Deliver([]int64{7})
	m.RunUntil(2900)
	nic.Deliver([]int64{42, 43})
	ssd.WriteSQE(m.Mem(), 0, device.OpRead, 0, 0, 9)
	m.Mem().Write(0x9000_0000, 1, 1) // ring doorbell (SrcCPU)
	m.RunUntil(3000)
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	m.RunUntil(15_000)
	want := deviceFingerprint(m, nic, ssd)
	if !strings.Contains(want, "wakes=2 ") {
		t.Fatalf("the RX waiter should wake once per packet:\n%s", want)
	}

	if err := m.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if m.Now() != 3000 {
		t.Fatalf("restored clock = %d, want 3000", m.Now())
	}
	m.RunUntil(15_000)
	if got := deviceFingerprint(m, nic, ssd); got != want {
		t.Fatalf("rewound replay diverged:\n got: %s\nwant: %s", got, want)
	}
}

// ringMachine builds the sharded token-ring workload: 8 cores on 4 shards,
// each with a spinning compute thread and a pacer service thread parked in
// monitor/mwait on a per-core mailbox. The pacer native keeps ALL its state
// in machine-owned places (registers and per-shard memory), and the
// scheduler checkpoints every token write, in flight between shards or
// queued between two cores of one shard, so the run is checkpointable at
// any quiescent cycle (TestRingCheckpointEvery97Cycles). The initial token
// is injected as a machine-owned scheduled DMA write.
func ringMachine(t *testing.T, shards, workers int) *Machine {
	t.Helper()
	const cores = 8
	const mailboxBase = 0x700000
	m := New(
		WithCores(cores), WithShards(shards), WithWorkers(workers),
		WithLookahead(400), WithThreads(2), WithSMTSlots(2),
	)
	spin := asm.MustAssemble("spin",
		"main:\n\tmovi r1, 0\nloop:\n\taddi r1, r1, 1\n\txor r2, r2, r1\n\tjmp loop")
	pacerProg := asm.MustAssemble("pacer", "loop:\n\tnative ring.pacer\n\tjmp loop")

	for i := 0; i < cores; i++ {
		i := i
		c := m.Core(i)
		mb := int64(mailboxBase + i*16)
		seen := mb + 8 // last-seen token lives in shard memory, not the closure
		next := (i + 1) % cores
		nextMB := int64(mailboxBase + next*16)
		c.RegisterNative("ring.pacer", func(c *core.Core, ctx *hwthread.Context) sim.Cycles {
			c.ArmWatches(ctx, mb)
			if v := c.ReadWord(mb); v > c.ReadWord(seen) {
				c.WriteWord(seen, v)
				m.RemoteWrite(m.ShardOfCore(i), m.ShardOfCore(next), nextMB, v+1, 0)
				return 60
			}
			c.WaitArmed(ctx)
			return 0
		})
		if err := c.BindProgram(0, spin, "main"); err != nil {
			t.Fatal(err)
		}
		if err := c.BootStart(0); err != nil {
			t.Fatal(err)
		}
		if err := c.BindProgram(1, pacerProg, "loop"); err != nil {
			t.Fatal(err)
		}
		c.Threads().Context(1).Regs.Mode = 1
		if err := c.BootStart(1); err != nil {
			t.Fatal(err)
		}
	}
	// First token toward core 0 at cycle 1 — machine-owned, so a checkpoint
	// taken before delivery would still round-trip.
	m.ScheduleDMAWrite(0, 1, mailboxBase, 1)
	return m
}

// ringSummary renders the complete observable state of the ring workload.
func ringSummary(m *Machine) string {
	const mailboxBase = 0x700000
	var b strings.Builder
	fmt.Fprintf(&b, "now=%d retired=%d\n", m.Now(), m.Retired())
	for i := 0; i < m.Cores(); i++ {
		c := m.Core(i)
		spin, pacer := c.Threads().Context(0), c.Threads().Context(1)
		s := m.ShardOfCore(i)
		mb := int64(mailboxBase + i*16)
		fmt.Fprintf(&b, "core%d r1=%d r2=%d pacer=%d mb=%d seen=%d wakes=%d\n",
			i, spin.Regs.GPR[1], spin.Regs.GPR[2], pacer.Retired,
			m.MemOf(s).Read(mb), m.MemOf(s).Read(mb+8), pacer.Wakeups)
	}
	for s := 0; s < m.Shards(); s++ {
		w, im, dr := m.MonitorOf(sim.ShardID(s)).Stats()
		wt, wd := m.MemOf(sim.ShardID(s)).Writes()
		fmt.Fprintf(&b, "shard%d monitor=%d/%d/%d writes=%d/%d\n", s, w, im, dr, wt, wd)
	}
	return b.String()
}

// TestShardedSnapshotDeterminism snapshots a 4-shard machine mid-run — with
// cross-shard token messages in flight — and verifies that restoring into a
// fresh serial machine AND into a fresh 4-worker sharded machine both run to
// a byte-identical final state vs the straight-through serial oracle.
func TestShardedSnapshotDeterminism(t *testing.T) {
	const checkpoint, horizon = 20_000, 60_000

	a := ringMachine(t, 4, 1)
	a.RunUntil(checkpoint)
	var buf bytes.Buffer
	if err := a.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snapBytes := buf.Bytes()

	// The checkpoint must actually cover in-flight cross-shard messages, or
	// this test is not testing what it claims.
	snap, err := snapshot.Decode(snapBytes)
	if err != nil {
		t.Fatal(err)
	}
	xr, err := snap.Section("xmsgs")
	if err != nil {
		t.Fatal(err)
	}
	nSeqs := xr.Len(8)
	for i := 0; i < nSeqs; i++ {
		xr.U64()
	}
	if nMsgs := xr.Len(42); nMsgs == 0 {
		t.Fatal("no in-flight cross-shard messages at the checkpoint; pick a busier cycle")
	}

	a.RunUntil(horizon)
	if err := a.Fatal(); err != nil {
		t.Fatal(err)
	}
	want := ringSummary(a)

	for name, workers := range map[string]int{"serial": 1, "sharded": 4} {
		b := ringMachine(t, 4, workers)
		if err := b.Restore(bytes.NewReader(snapBytes)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var re bytes.Buffer
		if err := b.Snapshot(&re); err != nil {
			t.Fatalf("%s re-snapshot: %v", name, err)
		}
		if !bytes.Equal(snapBytes, re.Bytes()) {
			t.Fatalf("%s: snapshot not byte-stable across restore", name)
		}
		b.RunUntil(horizon)
		if err := b.Fatal(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := ringSummary(b); got != want {
			t.Fatalf("%s restore diverged from serial straight-through:\n got: %s\nwant: %s", name, got, want)
		}
	}
}

// sameShardWrites counts a checkpoint's xmsgs records for token writes
// queued between two cores of one shard (src == to).
func sameShardWrites(t *testing.T, ckpt []byte) int {
	t.Helper()
	snap, err := snapshot.Decode(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	r, err := snap.Section("xmsgs")
	if err != nil {
		t.Fatal(err)
	}
	for range r.Len(8) {
		r.U64()
	}
	n := 0
	for range r.Len(48) {
		r.I64() // at
		src := r.I64()
		r.U64() // seq
		if r.I64() == src {
			n++
		}
		r.I64() // addr
		r.I64() // val
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRingCheckpointEvery97Cycles checkpoints the 8-core, 4-shard ring every
// 97 cycles from 500 to 60,000: pairs of cores share a shard, so many
// checkpoints hold a token write queued between two cores of one shard, and
// every checkpoint must succeed. The first such checkpoint restores into a
// serial and a 4-worker machine; each must re-serialize to the same bytes
// and run to the straight-through run's summary.
func TestRingCheckpointEvery97Cycles(t *testing.T) {
	const horizon = 60_000
	straight := ringMachine(t, 4, 1)
	straight.RunUntil(horizon)
	want := ringSummary(straight)

	m := ringMachine(t, 4, 1)
	var queued []byte
	for at := sim.Cycles(500); at <= horizon; at += 97 {
		m.RunUntil(at)
		var buf bytes.Buffer
		if err := m.Snapshot(&buf); err != nil {
			t.Fatalf("checkpoint at cycle %d: %v", at, err)
		}
		if queued == nil && sameShardWrites(t, buf.Bytes()) > 0 {
			queued = buf.Bytes()
		}
	}
	m.RunUntil(horizon)
	if got := ringSummary(m); got != want {
		t.Fatalf("checkpointing changed the run:\n got: %s\nwant: %s", got, want)
	}
	if queued == nil {
		t.Fatal("no checkpoint holds a queued same-shard write")
	}

	for name, workers := range map[string]int{"serial": 1, "sharded": 4} {
		b := ringMachine(t, 4, workers)
		if err := b.Restore(bytes.NewReader(queued)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var re bytes.Buffer
		if err := b.Snapshot(&re); err != nil {
			t.Fatalf("%s re-snapshot: %v", name, err)
		}
		if !bytes.Equal(queued, re.Bytes()) {
			t.Fatalf("%s: snapshot not byte-stable across restore", name)
		}
		b.RunUntil(horizon)
		if got := ringSummary(b); got != want {
			t.Fatalf("%s restore diverged from straight-through:\n got: %s\nwant: %s", name, got, want)
		}
	}
}

// TestSnapshotUnclaimedDriverEvent: a pending ad-hoc driver closure makes
// the machine non-checkpointable, and the error names the event instead of
// silently dropping it.
func TestSnapshotUnclaimedDriverEvent(t *testing.T) {
	m := New()
	m.Shard(0).At(500, "driver-glue", func() {})
	var buf bytes.Buffer
	err := m.Snapshot(&buf)
	if err == nil || !strings.Contains(err.Error(), "no checkpointable owner") ||
		!strings.Contains(err.Error(), "driver-glue") {
		t.Fatalf("want unclaimed-event error naming driver-glue, got %v", err)
	}
}

// TestRestoreTopologyMismatch: restoring a checkpoint into a machine with a
// different shape is an error, not a corruption.
func TestRestoreTopologyMismatch(t *testing.T) {
	m := New(WithCores(2))
	m.RunUntil(100)
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := New(WithCores(1)).Restore(bytes.NewReader(buf.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "topology") {
		t.Fatalf("want topology mismatch error, got %v", err)
	}
	// Truncated stream: an error, never a panic.
	if err := New(WithCores(2)).Restore(bytes.NewReader(buf.Bytes()[:40])); err == nil {
		t.Fatal("truncated restore should error")
	}
}

// oversubscribedMachine builds one core with ten runnable ptids on two SMT
// slots, each spinning on a mix of ALU and store latencies into its own
// word, so every thread has an issue queued behind the earliest one at any
// cycle.
func oversubscribedMachine(t *testing.T) *Machine {
	t.Helper()
	m := New(WithThreads(12), WithSMTSlots(2))
	prog := asm.MustAssemble("oversub", `
main:
loop:
	addi r1, r1, 1
	st [r2+0], r1
	mul r3, r1, r1
	jmp loop
`)
	c := m.Core(0)
	for p := 0; p < 10; p++ {
		if err := c.BindProgram(hwthread.PTID(p), prog, "main"); err != nil {
			t.Fatal(err)
		}
		c.Threads().Context(hwthread.PTID(p)).Regs.GPR[2] = 0x8000 + 64*int64(p)
		if err := c.BootStart(hwthread.PTID(p)); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestOversubscribedCheckpointGolden checkpoints a 10-on-2 core right after
// it stopped two queued threads, delayed a third and restarted one, while
// the cancelled issues are still queued as tombstones. The checkpoint's
// sha256 and the counts after a further run are pinned (the core wrote
// these when every runnable ptid kept its own event in the engine heap),
// and the restored machine must run on to the same dispatch and retirement
// counts, and the same checkpoint bytes, as the straight one.
func TestOversubscribedCheckpointGolden(t *testing.T) {
	const (
		wantSHA              = "6b1f47469709f0e996d21de51495289651579e8dc3850fbbb25808c55d84cdb9"
		wantRan, wantRetired = 29709, 29709
	)
	straight := oversubscribedMachine(t)
	straight.RunUntil(5000)
	c := straight.Core(0)
	c.StopThread(3)
	c.StopThread(6)
	c.InjectDelay(4, 777)
	if err := c.StartThreadSupervised(3); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := straight.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != wantSHA {
		t.Errorf("checkpoint sha256 %s, want %s", got, wantSHA)
	}

	restored := oversubscribedMachine(t)
	if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	straight.RunUntil(40_000)
	restored.RunUntil(40_000)
	if s, r := straight.Scheduler().Ran(), restored.Scheduler().Ran(); s != r {
		t.Errorf("Ran: straight %d, restored %d", s, r)
	}
	if s, r := straight.Retired(), restored.Retired(); s != r {
		t.Errorf("Retired: straight %d, restored %d", s, r)
	}
	if ran, retired := straight.Scheduler().Ran(), straight.Retired(); ran != wantRan || retired != wantRetired {
		t.Errorf("straight run: Ran %d Retired %d, want %d %d", ran, retired, wantRan, wantRetired)
	}
	var a, b bytes.Buffer
	if err := straight.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := restored.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("straight and restored checkpoints differ after the further run")
	}
}

// flakyComponent fails its first snapshot, after the cores and devices have
// claimed their events, and owns nothing.
type flakyComponent struct{ failed bool }

func (f *flakyComponent) SnapshotState(*snapshot.W) error {
	if !f.failed {
		f.failed = true
		return errors.New("flaky component")
	}
	return nil
}

func (f *flakyComponent) RestoreState(*snapshot.R) error { return nil }

// lopsidedComponent's save half writes one word more than its restore half
// reads: the shape of a field added to one half of a codec.
type lopsidedComponent struct{ n uint64 }

func (c *lopsidedComponent) SnapshotState(w *snapshot.W) error {
	w.U64(c.n).U64(0)
	return nil
}

func (c *lopsidedComponent) RestoreState(r *snapshot.R) error {
	c.n = r.U64()
	return r.Err()
}

// TestRestoreRejectsUnreadSection: a component that leaves part of its
// section unread fails the restore with an error naming the section.
func TestRestoreRejectsUnreadSection(t *testing.T) {
	build := func() *Machine {
		m, _, _ := deviceMachine(t)
		m.AttachSnapshotter("lopsided", 0, &lopsidedComponent{n: 7})
		return m
	}
	m := build()
	m.RunUntil(2000)
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	err := build().Restore(bytes.NewReader(buf.Bytes()))
	if err == nil || !strings.Contains(err.Error(), `"ext/lopsided"`) || !strings.Contains(err.Error(), "8 bytes left unread") {
		t.Fatalf("want an error naming ext/lopsided's unread bytes, got %v", err)
	}
}

// TestSnapshotRetryAfterFailure: each pass starts from an empty claim set,
// so a snapshot that failed part-way and is then retried succeeds and
// writes the bytes of a pass that never failed.
func TestSnapshotRetryAfterFailure(t *testing.T) {
	snap := func(failFirst bool) []byte {
		m, nic, _ := deviceMachine(t)
		m.AttachSnapshotter("flaky", 0, &flakyComponent{failed: !failFirst})
		m.RunUntil(2000)
		nic.Deliver([]int64{42, 43})
		m.RunUntil(2100)
		var buf bytes.Buffer
		if failFirst {
			if err := m.Snapshot(&buf); err == nil || !strings.Contains(err.Error(), "flaky") {
				t.Fatalf("want the flaky component's error, got %v", err)
			}
			buf.Reset()
		}
		if err := m.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(snap(true), snap(false)) {
		t.Fatal("a retried snapshot differs from one that never failed")
	}
}

// TestSnapshotEventWrittenTwice: an event two components write is a named
// checkpoint error, not a duplicate at restore.
func TestSnapshotEventWrittenTwice(t *testing.T) {
	m, nic, _ := deviceMachine(t)
	m.AttachSnapshotter("nic-again", 0, nic)
	m.RunUntil(2000)
	nic.Deliver([]int64{42, 43})
	m.RunUntil(2100)
	var buf bytes.Buffer
	err := m.Snapshot(&buf)
	if err == nil || !strings.Contains(err.Error(), `"nic-rx"`) || !strings.Contains(err.Error(), "written by 2 codecs") {
		t.Fatalf("want an error naming nic-rx written by 2 codecs, got %v", err)
	}
}

// TestSnapshotPendingMonitorInjections checkpoints a faulted machine while
// its monitor holds scheduled spurious wakes and a deferred (coalesced) wake
// batch. The monitor writes them at the tail of its section; the restored
// machine must re-create them, re-serialize to the same bytes, and finish
// exactly as the straight-through run does.
func TestSnapshotPendingMonitorInjections(t *testing.T) {
	const checkpoint, horizon = 2000, 60_000
	build := func() *Machine {
		m := New(WithThreads(3), WithFaultPlan(faultinject.Plan{
			Seed: 1, SpuriousWakeP: 1, SpuriousDelay: 40_000,
			CoalesceP: 1, CoalesceDelay: 5_000,
		}))
		c := m.Core(0)
		wait := asm.MustAssemble("wait", "main:\n\tmonitor r1\n\tmwait\n\tld r2, [r1+0]\n\thalt")
		write := asm.MustAssemble("write", "main:\n\tmovi r3, 7\n\tst [r1+0], r3\n\thalt")
		for p, prog := range []*isa.Program{wait, wait, write} {
			if err := c.BindProgram(hwthread.PTID(p), prog, "main"); err != nil {
				t.Fatal(err)
			}
		}
		c.Threads().Context(0).Regs.GPR[1] = 0x1000
		c.Threads().Context(1).Regs.GPR[1] = 0x2000
		c.Threads().Context(2).Regs.GPR[1] = 0x2000
		c.BootStart(0)
		c.BootStart(1)
		m.RunUntil(1000) // both waiters parked: each has a spurious wake scheduled
		c.BootStart(2)   // its store's wake batch is deferred
		m.RunUntil(checkpoint)
		return m
	}
	fingerprint := func(m *Machine) string {
		var b strings.Builder
		for p := 0; p < 3; p++ {
			ctx := m.Core(0).Threads().Context(hwthread.PTID(p))
			fmt.Fprintf(&b, "t%d=%v/%d ", p, ctx.State, ctx.Regs.GPR[2])
		}
		sp, co := m.Monitor().InjectedWakes()
		w, i, d := m.Monitor().Stats()
		fmt.Fprintf(&b, "now=%d injected=%d/%d monitor=%d/%d/%d", m.Now(), sp, co, w, i, d)
		return b.String()
	}

	m := build()
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	m.RunUntil(horizon)
	want := fingerprint(m)
	if !strings.Contains(want, "injected=1/1") {
		t.Fatalf("straight run %s: want one spurious and one coalesced wake delivered", want)
	}

	m2 := build()
	if err := m2.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := m2.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatalf("restored pending injections do not re-encode to the same bytes (%d vs %d)", buf.Len(), again.Len())
	}
	m2.RunUntil(horizon)
	if got := fingerprint(m2); got != want {
		t.Fatalf("restored run diverged:\n got %s\nwant %s", got, want)
	}
}
