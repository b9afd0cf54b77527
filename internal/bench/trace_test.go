package bench

import (
	"bytes"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"nocs/internal/kernel"
	"nocs/internal/sim"
	"nocs/internal/trace"
	"nocs/internal/workload"
)

// traceF1 runs a quick F1 with a fresh tracer and returns it.
func traceF1(t *testing.T) *trace.Tracer {
	t.Helper()
	tr := trace.New()
	e, ok := Get("F1")
	if !ok {
		t.Fatal("F1 not registered")
	}
	cfg := DefaultConfig()
	cfg.Quick = true
	cfg.Tracer = tr
	if _, err := e.Run(cfg); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestTraceDeterminism: the same seed must yield a byte-identical trace file.
func TestTraceDeterminism(t *testing.T) {
	var bufs [2]bytes.Buffer
	for i := range bufs {
		if err := traceF1(t).WriteJSON(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatal("two identical F1 runs produced different traces")
	}
	if bufs[0].Len() == 0 {
		t.Fatal("empty trace")
	}
}

// TestF1TraceWakeupChains checks the F1 story at the event level: in the
// mwait machine every wakeup is a monitor-fire → thread-resume flow and no
// IRQ ever fires, while the irq machine delivers vectored interrupts with
// the full entry+handler+exit cost visible as spans.
func TestF1TraceWakeupChains(t *testing.T) {
	tr := traceF1(t)
	if err := tr.CheckNesting(); err != nil {
		t.Fatalf("F1 trace malformed: %v", err)
	}

	proc := func(ev trace.Event) string {
		tk, ok := tr.TrackInfo(ev.Track)
		if !ok {
			t.Fatalf("event on unknown track %d", ev.Track)
		}
		return tk.Process
	}

	starts := make(map[trace.FlowID]string) // flow → starting process
	ends := make(map[trace.FlowID]string)
	irqSpans := 0
	for _, ev := range tr.Events() {
		p := proc(ev)
		switch ev.Phase {
		case trace.PhaseFlowStart:
			starts[ev.Flow] = p
		case trace.PhaseFlowEnd:
			ends[ev.Flow] = p
		case trace.PhaseComplete:
			if p == "F1/irq/irq" && ev.Name == "irq33" {
				irqSpans++
				// Span cost is the handler body; entry/exit are charged to
				// the victim but the span must at least cover the handler.
				if ev.Dur <= 0 {
					t.Fatalf("irq33 span with dur %d", ev.Dur)
				}
			}
		}
		if strings.HasPrefix(p, "F1/mwait/irq") {
			t.Fatalf("mwait machine emitted an IRQ event: %+v", ev)
		}
	}

	// Every monitor fire in the mwait machine must complete its flow on a
	// core-side track: fire → wake, the §3.1 wakeup chain.
	chains := 0
	for f, p := range starts {
		if p != "F1/mwait/monitor" {
			continue
		}
		end, ok := ends[f]
		if !ok {
			t.Fatalf("monitor flow %d never landed", f)
		}
		if !strings.HasPrefix(end, "F1/mwait/core") {
			t.Fatalf("monitor flow %d ended in %q, not a core", f, end)
		}
		chains++
	}
	if chains < f1QuickEvents {
		t.Fatalf("saw %d mwait wakeup chains, want >= %d", chains, f1QuickEvents)
	}
	if irqSpans < f1QuickEvents/2 {
		t.Fatalf("saw %d irq33 delivery spans, want >= %d", irqSpans, f1QuickEvents/2)
	}
}

// spanConcurrency sweeps the Complete spans named name in process proc and
// returns the peak number active at once.
func spanConcurrency(t *testing.T, tr *trace.Tracer, proc, name string) int {
	t.Helper()
	type edge struct {
		at    int64
		delta int
	}
	var edges []edge
	for _, ev := range tr.Events() {
		if ev.Phase != trace.PhaseComplete || ev.Name != name {
			continue
		}
		tk, _ := tr.TrackInfo(ev.Track)
		if tk.Process != proc {
			continue
		}
		edges = append(edges, edge{ev.At, +1}, edge{ev.At + ev.Dur, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta // close before open at a tie
	})
	peak, cur := 0, 0
	for _, e := range edges {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// TestF7TraceInterleaving is the §4 discipline contrast, asserted from the
// trace itself: on 2 servers under a burst of 8 equal requests, PS serves
// all 8 interleaved (sojourn spans stack 8 deep), while FCFS never has more
// than 2 requests in service.
func TestF7TraceInterleaving(t *testing.T) {
	tr := trace.New()
	cfg := DefaultConfig()
	cfg.Tracer = tr
	burst := func() []workload.Request {
		reqs := make([]workload.Request, 8)
		for i := range reqs {
			reqs[i] = workload.Request{ID: i, Arrival: 100, Demand: 10000}
		}
		return reqs
	}
	runDiscipline(cfg, "ps", func(eng *sim.Shard) kernel.QueueServer {
		return kernel.NewPS(eng, 2, 0, nil)
	}, burst())
	runDiscipline(cfg, "fcfs", func(eng *sim.Shard) kernel.QueueServer {
		return kernel.NewFCFS(eng, 2, 0, nil)
	}, burst())

	if err := tr.CheckNesting(); err != nil {
		t.Fatalf("F7 trace malformed: %v", err)
	}
	if got := spanConcurrency(t, tr, "ps", "sojourn"); got != 8 {
		t.Fatalf("PS served %d requests concurrently, want all 8", got)
	}
	if got := spanConcurrency(t, tr, "fcfs", "service"); got != 2 {
		t.Fatalf("FCFS had %d requests in service at peak, want exactly its 2 servers", got)
	}
}

// TestTracedRingRunsSharded: a traced machine runs exactly what an untraced
// one runs. E1's ring, traced, stays on the sharded scheduler at 2 workers,
// executes the untraced run's events on every shard, and records the same
// trace bytes as the 1-worker oracle.
func TestTracedRingRunsSharded(t *testing.T) {
	ec := EnduranceConfig{Cores: 4, Shards: 4, Horizon: 100_000}
	run := func(workers int, tr *trace.Tracer) ([]uint64, []byte) {
		cfg := DefaultConfig()
		cfg.Tracer = tr
		ec := ec
		ec.Workers = workers
		m, err := BuildEndurance(cfg, ec)
		if err != nil {
			t.Fatal(err)
		}
		if workers > 1 {
			if err := requireSharded(m); err != nil {
				t.Fatalf("traced=%v: %v", tr != nil, err)
			}
		}
		m.RunUntil(ec.Horizon)
		if err := m.Fatal(); err != nil {
			t.Fatal(err)
		}
		ran := make([]uint64, m.Shards())
		for i := range ran {
			ran[i] = m.Shard(sim.ShardID(i)).Ran()
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := tr.CheckNesting(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return ran, buf.Bytes()
	}
	plainRan, _ := run(2, nil)
	serialRan, serialTrace := run(1, trace.New())
	shardedRan, shardedTrace := run(2, trace.New())
	for name, ran := range map[string][]uint64{"traced 1-worker": serialRan, "traced 2-worker": shardedRan} {
		if !slices.Equal(ran, plainRan) {
			t.Fatalf("%s run executed %v events per shard, untraced %v", name, ran, plainRan)
		}
	}
	if !bytes.Equal(serialTrace, shardedTrace) {
		t.Fatalf("trace differs between 1 and 2 workers (%d vs %d bytes)", len(serialTrace), len(shardedTrace))
	}
}

// TestTracerForcesSerialExecution: an attached tracer runs sweep points one
// at a time even when the caller asked for parallelism, so their machines
// fork trace buffers in a deterministic order.
func TestTracerForcesSerialExecution(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Parallel = 8
	cfg.Tracer = trace.New()
	var order []int
	err := ForEachPoint(cfg, 16, func(i int) error {
		order = append(order, i) // data race here if points ran concurrently
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("points ran out of order: %v", order)
		}
	}
}

// TestRunAllTraceIndependentOfGOMAXPROCS: a traced RunAll runs its
// experiments one after another in input order, so each forks from the
// shared tracer at the same point and the trace file does not depend on how
// many OS threads the Go runtime schedules onto.
func TestRunAllTraceIndependentOfGOMAXPROCS(t *testing.T) {
	ids := []string{"F7", "A1", "A2", "A3", "A4"}
	var bufs [2]bytes.Buffer
	for i, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		cfg := DefaultConfig()
		cfg.Quick = true
		cfg.Tracer = trace.New()
		outs := RunAll(ids, cfg, 2)
		runtime.GOMAXPROCS(prev)
		for _, o := range outs {
			if o.Err != nil {
				t.Fatal(o.Err)
			}
		}
		if err := cfg.Tracer.WriteJSON(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatal("traced RunAll wrote different files at GOMAXPROCS 1 and 2")
	}
}
