package monitor

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"nocs/internal/faultinject"
	"nocs/internal/mem"
	"nocs/internal/sim"
	"nocs/internal/snapshot"
)

type fakeWaiter struct {
	wakes []struct {
		addr, val int64
		src       mem.WriteSource
	}
	rearm func(w *fakeWaiter) // optional behavior on wake
}

func (w *fakeWaiter) MonitorWake(addr, val int64, src mem.WriteSource) {
	w.wakes = append(w.wakes, struct {
		addr, val int64
		src       mem.WriteSource
	}{addr, val, src})
	if w.rearm != nil {
		w.rearm(w)
	}
}

func TestBasicArmWaitWake(t *testing.T) {
	e := NewEngine()
	w := &fakeWaiter{}
	e.Arm(w, 0x100)
	if e.Armed(w) != 1 {
		t.Fatalf("armed = %d", e.Armed(w))
	}
	if !e.Wait(w) {
		t.Fatal("Wait should block with no pending write")
	}
	if !e.Waiting(w) {
		t.Fatal("not waiting")
	}
	e.ObserveWrite(0x100, 7, mem.SrcCPU)
	if len(w.wakes) != 1 || w.wakes[0].addr != 0x100 || w.wakes[0].val != 7 {
		t.Fatalf("wakes: %+v", w.wakes)
	}
	if e.Waiting(w) || e.Armed(w) != 0 {
		t.Fatal("watch not consumed by wake")
	}
	wk, imm, drop := e.Stats()
	if wk != 1 || imm != 0 || drop != 0 {
		t.Fatalf("stats %d/%d/%d", wk, imm, drop)
	}
}

func TestNoLostWakeup(t *testing.T) {
	// Write lands between MONITOR and MWAIT: MWAIT must complete immediately.
	e := NewEngine()
	w := &fakeWaiter{}
	e.Arm(w, 0x200)
	e.ObserveWrite(0x200, 9, mem.SrcDMA)
	if len(w.wakes) != 0 {
		t.Fatal("woke before mwait")
	}
	if e.Wait(w) {
		t.Fatal("Wait blocked despite pending write")
	}
	if len(w.wakes) != 1 || w.wakes[0].val != 9 || w.wakes[0].src != mem.SrcDMA {
		t.Fatalf("buffered wake: %+v", w.wakes)
	}
	_, imm, _ := e.Stats()
	if imm != 1 {
		t.Fatalf("immediate = %d", imm)
	}
}

func TestMultiAddressWatch(t *testing.T) {
	e := NewEngine()
	w := &fakeWaiter{}
	e.Arm(w, 0x100)
	e.Arm(w, 0x200)
	e.Arm(w, 0x300)
	if e.Armed(w) != 3 {
		t.Fatalf("armed = %d", e.Armed(w))
	}
	e.Wait(w)
	e.ObserveWrite(0x200, 1, mem.SrcCPU)
	if len(w.wakes) != 1 || w.wakes[0].addr != 0x200 {
		t.Fatalf("wakes: %+v", w.wakes)
	}
	// The whole watch set is consumed.
	e.ObserveWrite(0x100, 2, mem.SrcCPU)
	e.ObserveWrite(0x300, 3, mem.SrcCPU)
	if len(w.wakes) != 1 {
		t.Fatal("stale watch fired after wake")
	}
}

func TestDuplicateArmIdempotent(t *testing.T) {
	e := NewEngine()
	w := &fakeWaiter{}
	e.Arm(w, 0x100)
	e.Arm(w, 0x100)
	if e.Armed(w) != 1 {
		t.Fatalf("armed = %d", e.Armed(w))
	}
}

func TestWaitWithoutArm(t *testing.T) {
	e := NewEngine()
	w := &fakeWaiter{}
	if e.Wait(w) {
		t.Fatal("mwait without monitor must not block")
	}
	if len(w.wakes) != 0 {
		t.Fatal("spurious wake")
	}
}

func TestUnwatchedWriteIgnored(t *testing.T) {
	e := NewEngine()
	w := &fakeWaiter{}
	e.Arm(w, 0x100)
	e.Wait(w)
	e.ObserveWrite(0x101, 1, mem.SrcCPU) // different address (byte-granular)
	if len(w.wakes) != 0 {
		t.Fatal("woke on unwatched address")
	}
}

func TestMultipleWaitersSameAddress(t *testing.T) {
	e := NewEngine()
	w1, w2 := &fakeWaiter{}, &fakeWaiter{}
	e.Arm(w1, 0x500)
	e.Arm(w2, 0x500)
	e.Wait(w1)
	e.Wait(w2)
	e.ObserveWrite(0x500, 42, mem.SrcDMA)
	if len(w1.wakes) != 1 || len(w2.wakes) != 1 {
		t.Fatalf("wakes %d/%d, want 1/1", len(w1.wakes), len(w2.wakes))
	}
}

func TestCancelWait(t *testing.T) {
	e := NewEngine()
	w := &fakeWaiter{}
	e.Arm(w, 0x100)
	e.Wait(w)
	e.CancelWait(w)
	if e.Waiting(w) {
		t.Fatal("still waiting after cancel")
	}
	e.ObserveWrite(0x100, 1, mem.SrcCPU)
	if len(w.wakes) != 0 {
		t.Fatal("woke after cancel")
	}
	e.CancelWait(w) // cancelling a non-waiter is a no-op
}

func TestDMAInvisibleAblation(t *testing.T) {
	e := NewEngine()
	e.DMAVisible = false
	w := &fakeWaiter{}
	e.Arm(w, 0x100)
	e.Wait(w)
	e.ObserveWrite(0x100, 1, mem.SrcDMA) // invisible
	e.ObserveWrite(0x100, 2, mem.SrcMSI) // invisible
	if len(w.wakes) != 0 {
		t.Fatal("DMA write woke waiter despite DMAVisible=false")
	}
	_, _, dropped := e.Stats()
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	e.ObserveWrite(0x100, 3, mem.SrcCPU) // CPU writes still work
	if len(w.wakes) != 1 {
		t.Fatal("CPU write did not wake")
	}
}

func TestRearmFromWakeHandler(t *testing.T) {
	// A waiter that re-arms inside its wake handler (the standard event-loop
	// pattern in the paper's "No More Interrupts" kernel) must not corrupt
	// engine state or miss the next write.
	e := NewEngine()
	w := &fakeWaiter{}
	w.rearm = func(w *fakeWaiter) {
		e.Arm(w, 0x100)
		e.Wait(w)
	}
	e.Arm(w, 0x100)
	e.Wait(w)
	e.ObserveWrite(0x100, 1, mem.SrcCPU)
	e.ObserveWrite(0x100, 2, mem.SrcCPU)
	e.ObserveWrite(0x100, 3, mem.SrcCPU)
	if len(w.wakes) != 3 {
		t.Fatalf("wakes = %d, want 3", len(w.wakes))
	}
}

func TestPendingOverwriteKeepsLatest(t *testing.T) {
	e := NewEngine()
	w := &fakeWaiter{}
	e.Arm(w, 0x100)
	e.ObserveWrite(0x100, 1, mem.SrcCPU)
	e.ObserveWrite(0x100, 2, mem.SrcCPU)
	e.Wait(w)
	if len(w.wakes) != 1 || w.wakes[0].val != 2 {
		t.Fatalf("wakes: %+v", w.wakes)
	}
}

func TestEngineAsMemoryObserver(t *testing.T) {
	// End-to-end: engine attached to real memory; a DMA write wakes.
	m := mem.NewMemory()
	e := NewEngine()
	m.AddObserver(e)
	w := &fakeWaiter{}
	e.Arm(w, 4096)
	e.Wait(w)
	d := mem.NewDMA(m)
	d.Write(4096, 77)
	if len(w.wakes) != 1 || w.wakes[0].val != 77 || w.wakes[0].src != mem.SrcDMA {
		t.Fatalf("wakes: %+v", w.wakes)
	}
}

// Property (no lost wakeups): for any interleaving of {arm, write, wait},
// if a write to the armed address happens at any point after arm, then after
// the full sequence either the waiter was woken, or it is still waiting and
// no write occurred after its (re-)arm. In particular arm→write→wait always
// wakes.
func TestNoLostWakeupProperty(t *testing.T) {
	f := func(writesBetween uint8, srcSel uint8) bool {
		e := NewEngine()
		w := &fakeWaiter{}
		src := []mem.WriteSource{mem.SrcCPU, mem.SrcDMA, mem.SrcMSI}[srcSel%3]
		e.Arm(w, 0x40)
		n := int(writesBetween % 5)
		for i := 0; i < n; i++ {
			e.ObserveWrite(0x40, int64(i), src)
		}
		blocked := e.Wait(w)
		if n > 0 {
			// Must have completed immediately with exactly one wake.
			return !blocked && len(w.wakes) == 1
		}
		return blocked && len(w.wakes) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: every armed-and-waiting waiter observing a matching write is
// woken exactly once per wake cycle, regardless of how many waiters share
// the address.
func TestFanoutWakeProperty(t *testing.T) {
	f := func(nWaiters uint8) bool {
		n := int(nWaiters%16) + 1
		e := NewEngine()
		ws := make([]*fakeWaiter, n)
		for i := range ws {
			ws[i] = &fakeWaiter{}
			e.Arm(ws[i], 0x80)
			e.Wait(ws[i])
		}
		e.ObserveWrite(0x80, 5, mem.SrcDMA)
		for _, w := range ws {
			if len(w.wakes) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWakeOrderIsArmOrder(t *testing.T) {
	// A write waking several waiters on one address must deliver the wakeups
	// in arm order, every run: map-order delivery makes racy multi-waiter
	// programs nondeterministic (caught by the differential harness's
	// cross-run determinism check).
	for trial := 0; trial < 20; trial++ {
		e := NewEngine()
		var order []int
		ws := make([]*fakeWaiter, 8)
		for i := range ws {
			i := i
			ws[i] = &fakeWaiter{rearm: func(*fakeWaiter) { order = append(order, i) }}
		}
		// Arm in a scrambled-but-fixed order, then block all.
		armOrder := []int{3, 0, 7, 5, 1, 6, 2, 4}
		for _, i := range armOrder {
			e.Arm(ws[i], 0x40)
		}
		for _, i := range armOrder {
			if !e.Wait(ws[i]) {
				t.Fatalf("trial %d: waiter %d did not block", trial, i)
			}
		}
		e.ObserveWrite(0x40, 1, mem.SrcCPU)
		if len(order) != len(armOrder) {
			t.Fatalf("trial %d: woke %d of %d", trial, len(order), len(armOrder))
		}
		for k, i := range armOrder {
			if order[k] != i {
				t.Fatalf("trial %d: wake order %v, want arm order %v", trial, order, armOrder)
			}
		}
	}
}

// rearmingWaiter models the kernel service loop: every wake re-arms the
// watch and waits again.
func rearmingWaiter(e *Engine, addr int64) *fakeWaiter {
	w := &fakeWaiter{}
	w.rearm = func(w *fakeWaiter) {
		e.Arm(w, addr)
		e.Wait(w)
	}
	return w
}

// A spurious wake consumes the watch set; a real write arriving right after
// the waiter re-arms must still be delivered. This is the liveness half of
// the fault model: injected wakes may waste work but never lose writes.
func TestSpuriousWakeThenRealWriteNotLost(t *testing.T) {
	eng := sim.NewEngine(nil)
	e := NewEngine()
	inj := faultinject.New(faultinject.Plan{Seed: 7, SpuriousWakeP: 1, SpuriousDelay: 100})
	e.SetFaultInjector(inj, sim.SoloShard(eng))

	w := rearmingWaiter(e, 0x100)
	e.Arm(w, 0x100)
	if !e.Wait(w) {
		t.Fatal("should block")
	}
	// Run past the injected wake only (P=1 keeps scheduling more; a bounded
	// run isolates exactly one).
	eng.RunUntil(150)
	if len(w.wakes) != 1 {
		t.Fatalf("spurious wake not delivered: %+v", w.wakes)
	}
	if sp, _ := e.InjectedWakes(); sp != 1 {
		t.Fatalf("spurious counter %d", sp)
	}
	if !e.Waiting(w) {
		t.Fatal("waiter did not re-arm after the spurious wake")
	}
	// The real write lands immediately after the re-arm: must wake.
	e.ObserveWrite(0x100, 9, mem.SrcDMA)
	if len(w.wakes) != 2 || w.wakes[1].addr != 0x100 || w.wakes[1].val != 9 || w.wakes[1].src != mem.SrcDMA {
		t.Fatalf("real write after spurious wake was lost: %+v", w.wakes)
	}
}

// The race variant: the real write lands between the post-spurious re-ARM
// and the re-WAIT. The pending-write buffer must complete the wait
// immediately — the classic no-lost-wakeup rule holds across injected wakes.
func TestSpuriousWakeRealWriteInReArmWindow(t *testing.T) {
	eng := sim.NewEngine(nil)
	e := NewEngine()
	inj := faultinject.New(faultinject.Plan{Seed: 7, SpuriousWakeP: 1, SpuriousDelay: 100})
	e.SetFaultInjector(inj, sim.SoloShard(eng))

	w := &fakeWaiter{}
	w.rearm = func(w *fakeWaiter) {
		if len(w.wakes) > 1 {
			return // only the spurious wake re-arms; the race wake stops
		}
		e.Arm(w, 0x200)
		// The write arrives between MONITOR and MWAIT.
		e.ObserveWrite(0x200, 42, mem.SrcCPU)
		if e.Wait(w) {
			t.Error("Wait blocked across a pending write")
		}
	}
	e.Arm(w, 0x200)
	e.Wait(w)
	eng.RunUntil(150)
	if len(w.wakes) != 2 || w.wakes[1].val != 42 {
		t.Fatalf("write in the re-arm window was lost: %+v", w.wakes)
	}
	_, imm, _ := e.Stats()
	if imm != 1 {
		t.Fatalf("immediate completions %d, want 1", imm)
	}
}

// Same-tick ordering: the injected spurious wake and the real write land on
// the same cycle. Scheduling order is deterministic (FIFO within a tick), so
// the spurious wake fires first, the service re-arms, and the real write
// still lands — exactly two wakes, nothing lost, run after run.
func TestSpuriousWakeSameTickAsRealWrite(t *testing.T) {
	for run := 0; run < 3; run++ {
		eng := sim.NewEngine(nil)
		e := NewEngine()
		inj := faultinject.New(faultinject.Plan{Seed: 7, SpuriousWakeP: 1, SpuriousDelay: 100})
		e.SetFaultInjector(inj, sim.SoloShard(eng))

		w := rearmingWaiter(e, 0x300)
		e.Arm(w, 0x300)
		e.Wait(w) // schedules the spurious wake at t=100
		eng.At(100, "real-write", func() { e.ObserveWrite(0x300, 5, mem.SrcDMA) })
		eng.RunUntil(100)
		if len(w.wakes) != 2 {
			t.Fatalf("run %d: wakes %+v, want spurious then real", run, w.wakes)
		}
		if w.wakes[1].val != 5 || w.wakes[1].src != mem.SrcDMA {
			t.Fatalf("run %d: real write corrupted: %+v", run, w.wakes[1])
		}
	}
}

// A waiter that was legitimately woken before the injected wake fires is
// left alone — spurious wakes target only still-blocked waiters.
func TestSpuriousWakeSkipsWokenWaiter(t *testing.T) {
	eng := sim.NewEngine(nil)
	e := NewEngine()
	inj := faultinject.New(faultinject.Plan{Seed: 7, SpuriousWakeP: 1, SpuriousDelay: 100})
	e.SetFaultInjector(inj, sim.SoloShard(eng))

	w := &fakeWaiter{} // does not re-arm
	e.Arm(w, 0x400)
	e.Wait(w)
	e.ObserveWrite(0x400, 1, mem.SrcCPU) // real wake before the fault fires
	eng.RunUntil(150)
	if len(w.wakes) != 1 {
		t.Fatalf("spurious wake hit a non-waiting waiter: %+v", w.wakes)
	}
	if sp, _ := e.InjectedWakes(); sp != 0 {
		t.Fatalf("spurious counter %d, want 0 (skipped)", sp)
	}
}

// A coalesced (deferred) wake batch is delivered late, not dropped.
func TestCoalescedWakeDeliveredLate(t *testing.T) {
	eng := sim.NewEngine(nil)
	e := NewEngine()
	inj := faultinject.New(faultinject.Plan{Seed: 7, CoalesceP: 1, CoalesceDelay: 200})
	e.SetFaultInjector(inj, sim.SoloShard(eng))

	w := &fakeWaiter{}
	e.Arm(w, 0x500)
	e.Wait(w)
	e.ObserveWrite(0x500, 77, mem.SrcDMA)
	if len(w.wakes) != 0 {
		t.Fatal("coalesced wake delivered synchronously")
	}
	eng.Run(0)
	if len(w.wakes) != 1 || w.wakes[0].val != 77 {
		t.Fatalf("coalesced wake lost: %+v", w.wakes)
	}
	if _, co := e.InjectedWakes(); co != 1 {
		t.Fatalf("coalesced counter %d", co)
	}
}

// countingWaiter counts wakeups without allocating.
type countingWaiter struct{ n int }

func (w *countingWaiter) MonitorWake(int64, int64, mem.WriteSource) { w.n++ }

// TestArmWaitWakeAllocFree pins the engine's allocation-free steady state:
// once watch sets and address lists have grown, a kernel service's cycle —
// re-arm a multi-address set, wait, wake on a DMA write — plus an immediate
// completion and a two-waiter fan-out allocate nothing.
func TestArmWaitWakeAllocFree(t *testing.T) {
	e := NewEngine()
	svc, a, b := &countingWaiter{}, &countingWaiter{}, &countingWaiter{}
	doorbells := []int64{0x100, 0x108, 0x110}
	cycle := func() {
		for _, d := range doorbells {
			e.Arm(svc, d)
		}
		e.Wait(svc)
		e.ObserveWrite(0x108, 1, mem.SrcDMA)
		e.Arm(a, 0x200)
		e.ObserveWrite(0x200, 2, mem.SrcCPU) // lands before mwait
		e.Wait(a)
		e.Arm(a, 0x300)
		e.Arm(b, 0x300)
		e.Wait(a)
		e.Wait(b)
		e.ObserveWrite(0x300, 3, mem.SrcCPU)
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state monitor cycle allocates %.1f times, want 0", allocs)
	}
	const cycles = 102 // the warm-up call, AllocsPerRun's own warm-up, 100 runs
	if svc.n != cycles || a.n != 2*cycles || b.n != cycles {
		t.Fatalf("wakes svc=%d a=%d b=%d, want %d/%d/%d", svc.n, a.n, b.n, cycles, 2*cycles, cycles)
	}
}

// orderWaiter logs its name on every wake into a shared log.
type orderWaiter struct {
	name string
	log  *[]string
}

func (w *orderWaiter) MonitorWake(addr, val int64, src mem.WriteSource) {
	*w.log = append(*w.log, w.name+"@"+strconv.FormatInt(val, 10))
}

// checkpoint encodes e's state as a one-section snapshot and returns the
// section's bytes and a reader over them.
func checkpoint(t *testing.T, e *Engine, ws []Waiter) ([]byte, *snapshot.R) {
	t.Helper()
	b := snapshot.NewBuilder()
	err := e.SnapshotState(b.Section("monitor"), func(w Waiter) (int64, bool) {
		i := slices.Index(ws, w)
		return int64(i), i >= 0
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := snapshot.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Section("monitor")
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), r
}

func waiterOf(ws []Waiter) func(int64) (Waiter, error) {
	return func(id int64) (Waiter, error) {
		if id < 0 || id >= int64(len(ws)) {
			return nil, fmt.Errorf("no waiter %d", id)
		}
		return ws[id], nil
	}
}

// TestSnapshotRestoreEquivalence: a restored engine re-encodes to the same
// bytes and then behaves exactly like the original — the same wake order on
// a shared address, the same buffered pending write, the same counters.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	var log1, log2 []string
	mk := func(log *[]string) []Waiter {
		return []Waiter{&orderWaiter{"w0", log}, &orderWaiter{"w1", log}, &orderWaiter{"w2", log}}
	}
	ws1, ws2 := mk(&log1), mk(&log2)
	e1 := NewEngine()
	e1.Arm(ws1[1], 0x40)
	e1.Arm(ws1[0], 0x40)
	e1.Arm(ws1[0], 0x80)
	e1.Arm(ws1[2], 0x40)
	e1.Arm(ws1[2], 0x90)
	e1.Wait(ws1[0])
	e1.Wait(ws1[1])
	e1.ObserveWrite(0x90, 5, mem.SrcDMA) // w2 not waiting: buffered
	b1, r := checkpoint(t, e1, ws1)

	e2 := NewEngine()
	e2.Arm(ws2[2], 0x999) // stale state the restore must replace
	if err := e2.RestoreState(r, waiterOf(ws2)); err != nil {
		t.Fatal(err)
	}
	if b2, _ := checkpoint(t, e2, ws2); !bytes.Equal(b1, b2) {
		t.Fatal("restored engine re-encodes to different bytes")
	}
	for i, run := range []struct {
		e  *Engine
		ws []Waiter
	}{{e1, ws1}, {e2, ws2}} {
		run.e.ObserveWrite(0x999, 1, mem.SrcCPU)
		run.e.ObserveWrite(0x40, 7, mem.SrcCPU)
		if run.e.Wait(run.ws[2]) {
			t.Fatalf("engine %d: w2 blocked despite its pending write", i)
		}
	}
	if want := []string{"w1@7", "w0@7", "w2@7"}; !slices.Equal(log1, want) || !slices.Equal(log2, want) {
		t.Fatalf("wake logs %v / %v, want %v", log1, log2, want)
	}
	w1, i1, _ := e1.Stats()
	w2, i2, _ := e2.Stats()
	if w1 != w2 || i1 != i2 {
		t.Fatalf("counters diverged: %d/%d vs %d/%d", w1, i1, w2, i2)
	}
}

// monitorSection hand-encodes a monitor section: watchers as (id, addrs,
// waiting), per-address lists as (addr, ids), and the counters, zero but
// for the evicted-watch count.
func monitorSection(t *testing.T, watchers [][]int64, waiting []bool, lists [][]int64, evicted uint64) *snapshot.Snapshot {
	t.Helper()
	b := snapshot.NewBuilder()
	w := b.Section("monitor")
	w.Len(len(watchers))
	for i, addrs := range watchers {
		w.I64(int64(i)).I64s(addrs).Bool(waiting[i]).Bool(false)
		w.I64(0).I64(0).U8(0)
	}
	w.Len(len(lists))
	for _, l := range lists {
		w.I64(l[0]).I64s(l[1:])
	}
	w.U64(0).U64(0).U64(0).U64(evicted).U64(0).U64(0)
	w.Len(0) // no pending fault injections
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := snapshot.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRestoreRejectsInconsistentLists: the per-address lists must name each
// armed (waiter, address) pair exactly once, and no engine evicts a watch.
// A section that breaks either is refused with an error naming the section,
// and the live engine keeps its state.
func TestRestoreRejectsInconsistentLists(t *testing.T) {
	cases := []struct {
		name     string
		watchers [][]int64
		waiting  []bool
		lists    [][]int64
		evicted  uint64
		want     string
	}{
		{"unarmed pair", [][]int64{{0x40}}, []bool{true}, [][]int64{{0x80, 0}}, 0, "has not armed"},
		{"missing pair", [][]int64{{0x40, 0x80}}, []bool{true}, [][]int64{{0x40, 0}}, 0, "arms 2 watches but lists 1"},
		{"repeated pair", [][]int64{{0x40}}, []bool{false}, [][]int64{{0x40, 0, 0}}, 0, "has not armed"},
		{"repeated address", [][]int64{{0x40}, {0x40}}, []bool{false, false}, [][]int64{{0x40, 0}, {0x40, 1}}, 0, "listed twice"},
		{"duplicate waiter", [][]int64{{0x40}, {0x40}}, []bool{false, false}, nil, 0, "duplicate waiter"},
		{"wait without watch", [][]int64{{}}, []bool{true}, nil, 0, "no armed address"},
		{"evicted watches", [][]int64{{0x40}}, []bool{true}, [][]int64{{0x40, 0}}, 1, ErrEvictedWatches.Error()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := &fakeWaiter{}
			ws := []Waiter{w, w}
			if tc.name != "duplicate waiter" {
				ws[1] = &fakeWaiter{}
			}
			e := NewEngine()
			e.Arm(w, 0x500)
			e.Wait(w)
			snap := monitorSection(t, tc.watchers, tc.waiting, tc.lists, tc.evicted)
			err := snap.Restore("monitor", func(r *snapshot.R) error { return e.RestoreState(r, waiterOf(ws)) })
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), `section "monitor"`) {
				t.Fatalf("err = %v, want one naming the section and containing %q", err, tc.want)
			}
			e.ObserveWrite(0x500, 1, mem.SrcCPU)
			if len(w.wakes) != 1 {
				t.Fatal("a refused restore disturbed the live watch set")
			}
		})
	}
}
