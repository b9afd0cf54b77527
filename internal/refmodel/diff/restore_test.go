package diff

import (
	"bytes"
	"reflect"
	"testing"

	"nocs/internal/progen"
	"nocs/internal/sim"
)

// checkpointCycles picks three pseudo-random, strictly ascending checkpoint
// cycles inside (0, deadline), seeded from the spec seed so every run of the
// sweep checkpoints at the same places.
func checkpointCycles(seed uint64, deadline int64) []sim.Cycles {
	rng := sim.NewRNG(seed*0x9E3779B97F4A7C15 + 0x5eedc4ec)
	span := deadline / 4
	if span < 1 {
		span = 1
	}
	var out []sim.Cycles
	for i := int64(0); i < 3; i++ {
		base := 1 + i*span
		cy := base + int64(rng.Uint64()%uint64(span))
		if cy >= deadline {
			cy = deadline - 1
		}
		if cy < 1 {
			cy = 1
		}
		if len(out) > 0 && sim.Cycles(cy) <= out[len(out)-1] {
			cy = int64(out[len(out)-1]) + 1
		}
		out = append(out, sim.Cycles(cy))
	}
	return out
}

// checkRestoreEquivalence is the property at the heart of this harness:
// checkpointing must not perturb the run, and restore + run-to-deadline must
// land in exactly the state of running straight through — for every seeded
// checkpoint cycle.
func checkRestoreEquivalence(t *testing.T, s *progen.Spec) {
	t.Helper()
	straight, _, err := runEngine(s)
	if err != nil {
		t.Fatalf("seed %d: %v", s.Seed, err)
	}
	cycles := checkpointCycles(s.Seed, s.Deadline)
	outC, snaps, _, err := checkpointRun(s, cycles)
	if err != nil {
		t.Fatalf("seed %d: %v", s.Seed, err)
	}
	if !reflect.DeepEqual(outC, straight) {
		t.Fatalf("seed %d: taking checkpoints at %v perturbed the run", s.Seed, cycles)
	}
	for i, ckpt := range snaps {
		m, c, err := restoreRun(s, ckpt)
		if err != nil {
			t.Fatalf("seed %d: restore checkpoint %d (cycle %d): %v", s.Seed, i, cycles[i], err)
		}
		// Re-serializing the restored machine must reproduce the bytes.
		var again bytes.Buffer
		if err := m.Snapshot(&again); err != nil {
			t.Fatalf("seed %d: re-snapshot checkpoint %d: %v", s.Seed, i, err)
		}
		if !bytes.Equal(ckpt, again.Bytes()) {
			t.Fatalf("seed %d: checkpoint %d (cycle %d) not byte-stable across restore (%d vs %d bytes)",
				s.Seed, i, cycles[i], len(ckpt), again.Len())
		}
		m.RunUntil(sim.Cycles(s.Deadline))
		if got := captureOutcome(s, m, c); !reflect.DeepEqual(got, straight) {
			t.Fatalf("seed %d: restore at cycle %d + run to deadline diverged from straight-through run",
				s.Seed, cycles[i])
		}
	}
}

// TestRestoreEquivalenceSweep runs the restore-equivalence property over the
// differential sweep's seeds: every run is checkpointed at 3 seeded random
// cycles, restored, and run to completion, requiring cycle-exact equality of
// registers, stats, and memory windows against the straight-through run.
func TestRestoreEquivalenceSweep(t *testing.T) {
	base, n := sweepParams(t)
	for seed := base; seed < base+n; seed++ {
		s, err := progen.Generate(seed, progen.DefaultBias())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkRestoreEquivalence(t, s)
	}
}

// TestFaultedRestoreEquivalenceSweep is the same property under the
// fault-biased generator: checkpoints land with spurious-wake injections
// still scheduled, so the machine's pending-injection records (and the fault
// paths they drive) must round-trip exactly.
func TestFaultedRestoreEquivalenceSweep(t *testing.T) {
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
		checkRestoreEquivalence(t, s)
	}
	if faulted < int(n)/2 {
		t.Fatalf("only %d/%d programs carried fault events; FaultBias too weak", faulted, n)
	}
}
