package diff

import (
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"nocs/internal/hwthread"
	"nocs/internal/isa"
	"nocs/internal/progen"
	"nocs/internal/sim"
	"nocs/internal/trace"
)

// sweepParams reads the sweep size and seed base, overridable from CI:
// NOCS_DIFF_N (count) and NOCS_DIFF_SEED_BASE (first seed).
func sweepParams(t *testing.T) (base, n uint64) {
	n = 500
	if v := os.Getenv("NOCS_DIFF_N"); v != "" {
		x, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("bad NOCS_DIFF_N %q: %v", v, err)
		}
		n = x
	}
	if v := os.Getenv("NOCS_DIFF_SEED_BASE"); v != "" {
		x, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("bad NOCS_DIFF_SEED_BASE %q: %v", v, err)
		}
		base = x
	}
	return base, n
}

// TestDifferentialSweep is the main acceptance test: hundreds of seeded
// random programs, each run through both implementations, with zero
// tolerated divergence. On failure it prints the seed and a replayable
// repro file.
func TestDifferentialSweep(t *testing.T) {
	base, n := sweepParams(t)
	for seed := base; seed < base+n; seed++ {
		s, err := progen.Generate(seed, progen.DefaultBias())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := Run(s, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.OK() {
			for _, d := range res.Divergences {
				t.Logf("  %s", d)
			}
			t.Fatalf("divergence: %s", res.Repro())
		}
	}
}

// TestSweepDeterministic reruns a slice of the sweep and requires the
// engine to reproduce its own outcome bit-for-bit, independently of the
// reference model.
func TestSweepDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		s, err := progen.Generate(seed, progen.DefaultBias())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		a, _, err := runEngine(s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, _, err := runEngine(s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: engine outcome not reproducible across runs", seed)
		}
	}
}

// runShards runs s on a fresh engine-side machine, with tr attached and,
// when hooked, a per-instruction OnExec observer (which turns the fast inner
// loop off), and returns its outcome with each shard's executed event count.
func runShards(t *testing.T, s *progen.Spec, tr *trace.Tracer, hooked bool) (*outcome, []uint64) {
	t.Helper()
	m, c, _, err := setupEngine(s, tr)
	if err != nil {
		t.Fatalf("seed %d: %v", s.Seed, err)
	}
	if hooked {
		c.OnExec = func(hwthread.PTID, int64, isa.Instr, sim.Cycles) {}
	}
	m.RunUntil(sim.Cycles(s.Deadline))
	ran := make([]uint64, m.Shards())
	for i := range ran {
		ran[i] = m.Shard(sim.ShardID(i)).Ran()
	}
	return captureOutcome(s, m, c), ran
}

// TestTracedRunsMatchUntraced runs a subset with tracing attached, on both
// batched configurations: the tracer must not perturb any architectural
// outcome or the execution itself — every shard runs exactly the untraced
// run's events — and the recorded spans must nest correctly.
func TestTracedRunsMatchUntraced(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		s, err := progen.Generate(seed, progen.DefaultBias())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, hooked := range []bool{false, true} {
			plain, plainRan := runShards(t, s, nil, hooked)
			tr := trace.New()
			traced, tracedRan := runShards(t, s, tr, hooked)
			if !reflect.DeepEqual(plain, traced) {
				t.Fatalf("seed %d (OnExec %v): tracing changed the architectural outcome", seed, hooked)
			}
			if !reflect.DeepEqual(plainRan, tracedRan) {
				t.Fatalf("seed %d (OnExec %v): per-shard events ran traced %v, untraced %v", seed, hooked, tracedRan, plainRan)
			}
			if err := tr.CheckNesting(); err != nil {
				t.Fatalf("seed %d (OnExec %v): %v", seed, hooked, err)
			}
		}
	}
}

// TestFaultedDifferentialSweep reruns the sweep with the fault-biased
// generator: most programs carry a schedule of planned spurious monitor
// wakeups (`; nocs-fault` directives) applied identically on both sides.
// Zero divergence is tolerated, and the refmodel invariant checker (which
// runs inside Run) asserts liveness: no armed wakeup may be lost across an
// injected spurious wake.
func TestFaultedDifferentialSweep(t *testing.T) {
	base, n := sweepParams(t)
	faulted := 0
	for seed := base; seed < base+n; seed++ {
		s, err := progen.Generate(seed, progen.FaultBias())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(s.Faults) > 0 {
			faulted++
		}
		res, err := Run(s, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.OK() {
			for _, d := range res.Divergences {
				t.Logf("  %s", d)
			}
			t.Fatalf("faulted divergence: %s", res.Repro())
		}
	}
	// The bias must actually produce fault schedules, or this sweep is just
	// TestDifferentialSweep again.
	if faulted < int(n)/2 {
		t.Fatalf("only %d/%d programs carried fault events; FaultBias too weak", faulted, n)
	}
}

// TestFaultSpecRoundTrip checks that `; nocs-fault` directives survive
// Format/ParseSpec, so faulted repro dumps replay the same schedule.
func TestFaultSpecRoundTrip(t *testing.T) {
	var s *progen.Spec
	for seed := uint64(0); ; seed++ {
		var err error
		s, err = progen.Generate(seed, progen.FaultBias())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(s.Faults) > 0 {
			break
		}
		if seed > 100 {
			t.Fatal("no faulted program in 100 seeds")
		}
	}
	text := s.Format()
	p, err := progen.ParseSpec("roundtrip", text)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Faults, s.Faults) {
		t.Fatalf("fault schedule did not round-trip:\n got %v\nwant %v", p.Faults, s.Faults)
	}
	if p.Format() != text {
		t.Fatal("Format not stable across ParseSpec round-trip")
	}
}

// TestFaultAtDMATickAgrees pins the hardest ordering case: a spurious wake
// scheduled exactly one cycle before, on, and after a DMA write tick. The
// engine resolves the same-cycle tie by schedule order (DMA events first,
// then fault events — both pre-boot), the refmodel by its pre-assigned
// sequence numbers; the two must agree on every architectural outcome.
func TestFaultAtDMATickAgrees(t *testing.T) {
	tested := 0
	for seed := uint64(0); seed < 200 && tested < 20; seed++ {
		s, err := progen.Generate(seed, progen.FaultBias())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(s.Faults) == 0 || len(s.DMA) == 0 {
			continue
		}
		tested++
		for _, delta := range []int64{-1, 0, 1} {
			at := s.DMA[0].At + delta
			if at < 0 {
				continue
			}
			s.Faults[0].At = at
			res, err := Run(s, Options{})
			if err != nil {
				t.Fatalf("seed %d delta %d: %v", seed, delta, err)
			}
			if !res.OK() {
				for _, d := range res.Divergences {
					t.Logf("  %s", d)
				}
				t.Fatalf("seed %d: fault at DMA tick%+d diverged: %s", seed, delta, res.Repro())
			}
		}
	}
	if tested == 0 {
		t.Fatal("no program with both DMA and fault events in 200 seeds")
	}
}

// TestFaultMutationIsCaught flips the reference model's fault-swallowing
// knob (DESIGN.md §10): the ref side skips every scheduled spurious wake
// while the engine still applies them. The faulted sweep must notice — a
// harness that cannot catch a dropped fault injection proves nothing about
// the fault paths.
func TestFaultMutationIsCaught(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		s, err := progen.Generate(seed, progen.FaultBias())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(s.Faults) == 0 {
			continue
		}
		res, err := Run(s, Options{SwallowInjectedWakes: true})
		if err != nil && strings.Contains(err.Error(), "lost wakeup") {
			return // caught by the no-lost-wakeups invariant checker
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.OK() {
			return // caught by outcome comparison
		}
	}
	t.Fatal("fault-swallowing mutation survived 50 seeds undetected")
}

// TestMutationIsCaught flips the reference model's documented
// wakeup-dropping knob (DESIGN.md §9) and requires the sweep to notice:
// a differential harness that cannot catch a planted lost-wakeup bug
// would prove nothing.
func TestMutationIsCaught(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		s, err := progen.Generate(seed, progen.DefaultBias())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := Run(s, Options{DropPendingWakeups: true})
		if err != nil && strings.Contains(err.Error(), "lost wakeup") {
			return // caught by the no-lost-wakeups invariant checker
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.OK() {
			return // caught by outcome comparison
		}
	}
	t.Fatal("wakeup-dropping mutation survived 50 seeds undetected")
}
