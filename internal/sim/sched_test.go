package sim

import (
	"fmt"
	"testing"
)

// schedLog records one shard's event order. Each entry is produced by the
// shard that owns the log, so parallel runs append race-free and the
// per-shard sequences can be compared byte-for-byte across schedulers.
type schedLog struct {
	lines []string
}

func (l *schedLog) add(format string, args ...any) {
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

// pinger drives a deterministic mixed workload on one shard: a local
// periodic event plus a cross-shard write to the next shard every third
// firing, with a delay that wobbles deterministically with the count.
type pinger struct {
	sh    *Shard
	logs  []*schedLog
	n     int
	step  Cycles
	look  Cycles
	count int
	limit int
}

func (p *pinger) OnEvent() {
	id := int(p.sh.id)
	p.logs[id].add("t=%d shard=%d tick=%d", p.sh.Now(), id, p.count)
	p.count++
	if p.count%3 == 0 {
		to := ShardID((id + 1) % p.n)
		delay := p.look + Cycles(p.count%5)
		p.sh.Write(to, delay, int64(id), int64(p.count))
	}
	if p.count < p.limit {
		p.sh.AfterCallback(p.step, "tick", p)
	}
}

// buildPingWorkload arms the same deterministic workload on any scheduler;
// each shard's store logs the writes that land on it.
func buildPingWorkload(s *Scheduler, limit int) []*schedLog {
	n := s.Shards()
	logs := make([]*schedLog, n)
	for i := range logs {
		logs[i] = &schedLog{}
	}
	for i := 0; i < n; i++ {
		sh := s.Shard(ShardID(i))
		l := logs[i]
		sh.SetStore(func(addr, val int64) { l.add("t=%d shard=%d store %d=%d", sh.Now(), i, addr, val) })
		p := &pinger{sh: sh, logs: logs, n: n, step: Cycles(7 + i), look: s.Lookahead(), limit: limit}
		sh.AfterCallback(Cycles(i), "tick", p)
	}
	return logs
}

// ticksOf flattens per-shard logs for comparison.
func flatten(logs []*schedLog) []string {
	var out []string
	for i, l := range logs {
		out = append(out, fmt.Sprintf("-- shard %d --", i))
		out = append(out, l.lines...)
	}
	return out
}

func diffLogs(t *testing.T, want, got []string, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: log length %d, oracle %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: line %d differs:\n  oracle: %s\n  got:    %s", label, i, want[i], got[i])
		}
	}
}

// TestShardSweepDeterminism pins the tentpole guarantee: for each shard
// count, the scheduler at several worker counts produces the exact
// per-shard event sequences of the one-worker oracle.
func TestShardSweepDeterminism(t *testing.T) {
	const look = Cycles(16)
	const deadline = Cycles(4000)
	for _, shards := range []int{1, 2, 4, 8} {
		ser := NewScheduler(shards, look, 1)
		serLogs := buildPingWorkload(ser, 200)
		ser.RunUntil(deadline)
		oracle := flatten(serLogs)
		if len(oracle) <= shards {
			t.Fatalf("shards=%d: oracle log empty", shards)
		}
		for _, workers := range []int{1, 2, 4} {
			sh := NewScheduler(shards, look, workers)
			logs := buildPingWorkload(sh, 200)
			sh.RunUntil(deadline)
			diffLogs(t, oracle, flatten(logs), fmt.Sprintf("shards=%d workers=%d", shards, workers))
		}
	}
}

// wakeLog records the cycle of each event or write it receives.
type wakeLog struct {
	sh *Shard
	at []Cycles
}

func (w *wakeLog) OnEvent() { w.at = append(w.at, w.sh.Now()) }

// storeTo makes a wakeLog shard sh's store.
func storeTo(sh *Shard) *wakeLog {
	w := &wakeLog{sh: sh}
	sh.SetStore(func(addr, val int64) { w.OnEvent() })
	return w
}

// busy keeps a shard's queue dense so its window execution is non-trivial.
type busy struct {
	sh   *Shard
	left int
}

func (b *busy) OnEvent() {
	if b.left > 0 {
		b.left--
		b.sh.AfterCallback(1, "busy", b)
	}
}

// TestTimeZeroCrossShardDelivery is the lookahead-horizon edge case at time
// zero: a message sent before any core has run (during construction, clock
// 0) toward a shard with NO local events must still be delivered at exactly
// its arrival time — the receiving shard may not be advanced past an
// undelivered cross-shard event just because its own queue is empty.
func TestTimeZeroCrossShardDelivery(t *testing.T) {
	const look = Cycles(50)
	for name, workers := range map[string]int{"serial": 1, "sharded": 2} {
		s := NewScheduler(2, look, workers)
		// Shard 1 is busy from cycle 0; shard 0 is completely idle.
		b := &busy{sh: s.Shard(1), left: 400}
		s.Shard(1).AfterCallback(0, "busy", b)
		w := storeTo(s.Shard(0))
		// Construction-time write: clock 0, minimum legal delay.
		s.Shard(1).Write(0, look, 0x40, 1)
		s.RunUntil(10 * look)
		if len(w.at) != 1 || w.at[0] != look {
			t.Fatalf("%s: delivery times = %v, want exactly [%d]", name, w.at, look)
		}
	}
}

// TestTimeZeroDeliveryToFullyIdleScheduler covers the degenerate corner:
// the ONLY event in the whole system is an undelivered pre-run cross-shard
// message. The window loop must jump to its arrival, not return early.
func TestTimeZeroDeliveryToFullyIdleScheduler(t *testing.T) {
	const look = Cycles(64)
	s := NewScheduler(4, look, 4)
	w := storeTo(s.Shard(3))
	s.Shard(0).Write(3, 3*look, 0x40, 1)
	if n := s.RunUntil(1000); n != 1 {
		t.Fatalf("ran %d events, want 1", n)
	}
	if len(w.at) != 1 || w.at[0] != 3*look {
		t.Fatalf("delivery times = %v, want [%d]", w.at, 3*look)
	}
	if got := s.Now(); got != 1000 {
		t.Fatalf("Now() = %d after RunUntil(1000), want 1000", got)
	}
}

// TestSparseQueueJump: windows jump across large empty gaps instead of
// stepping lookahead-by-lookahead, without reordering anything.
func TestSparseQueueJump(t *testing.T) {
	const look = Cycles(10)
	ser := NewScheduler(2, look, 1)
	shd := NewScheduler(2, look, 2)
	for _, s := range []*Scheduler{ser, shd} {
		w0 := &wakeLog{sh: s.Shard(0)}
		s.Shard(0).AtCallback(1_000_000, "late", w0)
		w1 := &wakeLog{sh: s.Shard(1)}
		s.Shard(1).AtCallback(5_000_000, "later", w1)
		if n := s.Run(0); n != 2 {
			t.Fatalf("ran %d events, want 2", n)
		}
		if w0.at[0] != 1_000_000 || w1.at[0] != 5_000_000 {
			t.Fatalf("deliveries at %v/%v", w0.at, w1.at)
		}
	}
}

func TestSendBelowLookaheadPanics(t *testing.T) {
	s := NewScheduler(2, 100, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("cross-shard Write below lookahead did not panic")
		}
	}()
	s.Shard(0).Write(1, 99, 0x40, 1)
}

func TestSelfSendAnyDelay(t *testing.T) {
	s := NewScheduler(2, 100, 1)
	w := storeTo(s.Shard(0))
	s.Shard(0).Write(0, 1, 0x40, 1) // below lookahead: legal for self
	s.RunUntil(10)
	if len(w.at) != 1 || w.at[0] != 1 {
		t.Fatalf("self-write delivery = %v, want [1]", w.at)
	}
}

func TestSoloShard(t *testing.T) {
	eng := NewEngine(nil)
	sh := SoloShard(eng)
	if sh.id != 0 {
		t.Fatalf("solo shard id = %d", sh.id)
	}
	w := storeTo(sh)
	sh.Write(0, 5, 0x40, 1)
	eng.Run(0)
	if len(w.at) != 1 || w.at[0] != 5 {
		t.Fatalf("solo self-write delivery = %v, want [5]", w.at)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("solo cross-shard Write did not panic")
		}
	}()
	sh.Write(1, 5, 0x40, 1)
}

func TestMultiShardRunLimitPanics(t *testing.T) {
	s := NewScheduler(2, 10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Run(limit>0) on a multi-shard scheduler did not panic")
		}
	}()
	s.Run(5)
}

// TestSingleShardSchedulerMatchesEngine: with one shard the scheduler is
// the classic engine loop, event for event — the property that keeps every
// existing single-shard machine byte-identical through the API migration.
func TestSingleShardSchedulerMatchesEngine(t *testing.T) {
	eng := NewEngine(nil)
	var engLog []string
	for i := 0; i < 20; i++ {
		i := i
		at := Cycles((i * 37) % 100)
		eng.At(at, "ev", func() { engLog = append(engLog, fmt.Sprintf("%d@%d", i, eng.Now())) })
	}
	eng.RunUntil(200)

	s := NewScheduler(1, 1, 1)
	var schedLogL []string
	for i := 0; i < 20; i++ {
		i := i
		at := Cycles((i * 37) % 100)
		s.Shard(0).At(at, "ev", func() { schedLogL = append(schedLogL, fmt.Sprintf("%d@%d", i, s.Shard(0).Now())) })
	}
	s.RunUntil(200)

	diffLogs(t, engLog, schedLogL, "single-shard scheduler vs engine")
	if s.Now() != 200 || eng.Now() != 200 {
		t.Fatalf("clocks = %d/%d, want 200", s.Now(), eng.Now())
	}
}

// TestPendingCountsInflight: Pending must include undelivered cross-shard
// writes so "queue empty" checks cannot race ahead of a delivery.
func TestPendingCountsInflight(t *testing.T) {
	s := NewScheduler(2, 10, 1)
	storeTo(s.Shard(1))
	s.Shard(0).Write(1, 10, 0x40, 1)
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending = %d, want 1 (in-flight message)", got)
	}
	s.Run(0)
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending = %d after drain, want 0", got)
	}
	if got := s.Ran(); got != 1 {
		t.Fatalf("Ran = %d, want 1", got)
	}
}
