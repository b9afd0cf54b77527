package bench

import (
	"encoding/json"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

var quickCfg = RunConfig{Seed: 1234, Quick: true}

func TestRegistryComplete(t *testing.T) {
	want := []string{"A1", "A2", "A3", "A4", "F1", "F2", "F3", "F4", "F5", "F6",
		"F7", "F8", "F9", "F10", "F11", "F12", "F13", "F14", "F15", "F16", "T1", "T2"}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("registry has %d experiments: %v", len(ids), ids)
	}
	for _, id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("missing experiment %s", id)
		}
	}
	// IDs are the paper suite, sorted by prefix then number (F10 after F9).
	for i, id := range ids {
		if id != want[i] {
			t.Fatalf("IDs() = %v, want %v", ids, want)
		}
	}
	// The system suite is registered but stays out of IDs() and -all.
	system := []string{"E1", "L1", "S1", "SV1"}
	if got := SuiteIDs(SuiteSystem); strings.Join(got, ",") != strings.Join(system, ",") {
		t.Fatalf("SuiteIDs(system) = %v, want %v", got, system)
	}
	for _, id := range system {
		if e, ok := Get(id); !ok || e.Suite != SuiteSystem {
			t.Errorf("experiment %s missing from the system suite", id)
		}
	}
}

// TestResultJSONRoundTrip: every registered experiment's quick Result
// survives a JSON encode/decode round trip and renders identically after
// it, so `nocsim -format json` carries everything the table output does,
// and its checks, which render only when they fail, come back unchanged.
func TestResultJSONRoundTrip(t *testing.T) {
	ids := append(IDs(), SuiteIDs(SuiteSystem)...)
	for _, o := range RunAll(ids, quickCfg, runtime.GOMAXPROCS(0)) {
		if o.Err != nil {
			t.Fatalf("%s: %v", o.ID, o.Err)
		}
		data, err := json.Marshal(o.Res)
		if err != nil {
			t.Fatalf("%s: encode: %v", o.ID, err)
		}
		var back Result
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: decode: %v", o.ID, err)
		}
		if got, want := back.String(), o.Res.String(); got != want {
			t.Fatalf("%s: JSON round trip changed the result:\n got %s\nwant %s", o.ID, got, want)
		}
		if !slices.Equal(back.Checks, o.Res.Checks) {
			t.Fatalf("%s: JSON round trip changed the checks:\n got %v\nwant %v", o.ID, back.Checks, o.Res.Checks)
		}
	}
}

func TestGetCaseInsensitive(t *testing.T) {
	if _, ok := Get("f1"); !ok {
		t.Fatal("lowercase lookup")
	}
	if _, ok := Get("nope"); ok {
		t.Fatal("bogus lookup")
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("ZZ9", quickCfg); err == nil {
		t.Fatal("unknown experiment did not error")
	}
}

func TestDuplicateRegisterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration accepted")
		}
	}()
	Register(&Experiment{ID: "T1"})
}

// mustRun runs one experiment or fails the test.
func mustRun(t *testing.T, id string, cfg RunConfig) *Result {
	t.Helper()
	r, err := Run(id, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestResultRendering(t *testing.T) {
	r := mustRun(t, "T1", quickCfg)
	s := r.String()
	for _, want := range []string{"### T1", "Paper claim:", "0b1110", "note:"} {
		if !strings.Contains(s, want) {
			t.Fatalf("result missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "check failed") {
		t.Fatalf("checks that hold must render nothing:\n%s", s)
	}
	r.Checks = append(r.Checks, Check{Name: "a < b", Detail: "a 2, b 1"})
	if want := "\ncheck failed: a < b: a 2, b 1\nnote:"; !strings.Contains(r.String(), want) {
		t.Fatalf("failed check not rendered as %q before the notes:\n%s", want, r)
	}
}

// quickPaper runs the paper suite once at quick size and shares its
// results among the claim tests below.
var quickPaper = sync.OnceValue(func() map[string]Outcome {
	out := map[string]Outcome{}
	for _, o := range RunAll(IDs(), quickCfg, runtime.GOMAXPROCS(0)) {
		out[o.ID] = o
	}
	return out
})

// claimsHold requires experiment id, run at quick size, to state each named
// check and at least one check, and every check it states to hold.
func claimsHold(t *testing.T, id string, names ...string) {
	t.Helper()
	o := quickPaper()[id]
	if o.Err != nil {
		t.Fatalf("%s: %v", id, o.Err)
	}
	if o.Res == nil || len(o.Res.Checks) == 0 {
		t.Fatalf("%s states no check", id)
	}
	for _, c := range o.Res.Checks {
		if !c.Holds {
			t.Errorf("%s: check failed: %s: %s", id, c.Name, c.Detail)
		}
	}
	for _, name := range names {
		if !slices.ContainsFunc(o.Res.Checks, func(c Check) bool { return c.Name == name }) {
			t.Errorf("%s states no check %q", id, name)
		}
	}
}

// TestPaperClaimsHold: every paper-suite experiment states its claims as
// checks, and at quick size every one of them holds.
func TestPaperClaimsHold(t *testing.T) {
	for _, id := range IDs() {
		claimsHold(t, id)
	}
}

func TestT2PaperArithmetic(t *testing.T) {
	claimsHold(t, "T2", "a 64KB RF holds 83 vector and 240 base contexts")
}

func TestF1Shape(t *testing.T) {
	claimsHold(t, "F1", "IRQ p50 ≥ 5× mwait p50", "polling p50 ≤ 3× mwait p50")
}

func TestF2Shape(t *testing.T) {
	claimsHold(t, "F2", "mwait app work > polling app work at load 0.8",
		"mwait app work > interrupt app work at load 0.8", "mwait p50 < interrupt p50 at load 0.2")
}

func TestF3Shape(t *testing.T) {
	claimsHold(t, "F3", "hw-thread syscall < in-thread mode switch")
}

func TestF4Shape(t *testing.T) {
	claimsHold(t, "F4", "hw-thread VM exit < in-thread VM exit")
}

func TestF5Shape(t *testing.T) {
	claimsHold(t, "F5", "FP-using kernel > integer-only kernel")
}

func TestF6Shape(t *testing.T) {
	claimsHold(t, "F6", "direct IPC < scheduler IPC", "scheduler IPC ≥ monolithic syscall",
		"direct IPC ≥ the 800-cycle service body")
}

func TestF7Shape(t *testing.T) {
	claimsHold(t, "F7", "bimodal FCFS short-request p99 ≥ 3× PS short-request p99 at load 0.8",
		"bimodal PS short-request p99 ≤ 20× short service at load 0.8")
}

func TestF8Shape(t *testing.T) {
	claimsHold(t, "F8", "RF start = 20 cycles", "L2 and L3 add 10–50 cycles to an RF start",
		"DRAM start = 420 cycles")
}

func TestF9Shape(t *testing.T) {
	claimsHold(t, "F9", "time-critical p50 < fair p50")
}

func TestF10Shape(t *testing.T) {
	claimsHold(t, "F10", "nocs fan-out p50 < legacy fan-out p50")
}

func TestF11Shape(t *testing.T) {
	claimsHold(t, "F11", "deprivileged legacy > in-kernel legacy", "nocs hw-thread chain < deprivileged legacy")
}

func TestF12Shape(t *testing.T) {
	claimsHold(t, "F12", "nocs IO < legacy IO", "5× nocs overhead ≤ legacy overhead")
}

func TestF13Shape(t *testing.T) {
	claimsHold(t, "F13", "10× monitor-wake p50 ≤ IPI-chain p50")
}

func TestF14Shape(t *testing.T) {
	claimsHold(t, "F14", "hw-thread chain < sidecar", "hw-thread chain overhead ≤ 500 cycles")
}

func TestF15Shape(t *testing.T) {
	claimsHold(t, "F15", "10× doorbell p50 ≤ 10µs-tick p50")
}

func TestF16Shape(t *testing.T) {
	claimsHold(t, "F16", "nocs echo p50 < legacy echo p50")
}

func TestA1Shape(t *testing.T) {
	claimsHold(t, "A1", "1024-thread pool short-request p99 < 4-thread pool short-request p99")
}

func TestA2Shape(t *testing.T) {
	claimsHold(t, "A2", "DMA-invisible mwait serves 0 events", "IRQ fallback serves every event")
}

func TestA3Shape(t *testing.T) {
	claimsHold(t, "A3", "prefetch at a 50-cycle gap starts in 20 cycles")
}

func TestA4Shape(t *testing.T) {
	claimsHold(t, "A4", "pinned start = 20 cycles", "unpinned start > pinned start")
}

func TestT1DeterministicAndExact(t *testing.T) {
	claimsHold(t, "T1", "each TDT row grants exactly its permission bits",
		"B stops A and C stops B, but C cannot stop A")
	if mustRun(t, "T1", quickCfg).String() != mustRun(t, "T1", quickCfg).String() {
		t.Fatal("T1 not deterministic")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	for _, id := range []string{"F7", "F10", "A1"} {
		a := mustRun(t, id, quickCfg).String()
		b := mustRun(t, id, quickCfg).String()
		if a != b {
			t.Fatalf("%s not deterministic", id)
		}
	}
}

// The parallel sweep runner must be invisible in the output: every sweep
// point is seeded independently and merged in index order, so Parallel > 1
// renders byte-identical tables (ISSUE 1 determinism requirement).
func TestParallelPointsMatchSerial(t *testing.T) {
	for _, id := range []string{"F2", "F7", "A1"} {
		serial := mustRun(t, id, quickCfg)
		par := quickCfg
		par.Parallel = 8
		parallel := mustRun(t, id, par)
		if serial.String() != parallel.String() {
			t.Fatalf("%s: parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				id, serial, parallel)
		}
	}
}

// RunAll must return outcomes in input order regardless of scheduling.
func TestRunAllPreservesOrder(t *testing.T) {
	ids := []string{"T1", "F7", "T2"}
	out := RunAll(ids, quickCfg, 4)
	if len(out) != len(ids) {
		t.Fatalf("got %d outcomes", len(out))
	}
	for i, o := range out {
		if o.Err != nil {
			t.Fatalf("%s: %v", ids[i], o.Err)
		}
		if o.ID != ids[i] {
			t.Fatalf("outcome %d is %s, want %s", i, o.ID, ids[i])
		}
	}
	if _, err := Run("NOPE", quickCfg); err == nil {
		t.Fatal("unknown id must error")
	}
}

// TestF9DispatchCounts pins both full-size F9 machines' dispatched-event
// count (Scheduler().Ran()) and retired instructions. Nine runnable ptids
// share two SMT slots, so these counts cover the core's oversubscribed
// dispatch path one event per issued batch: a change to how the core queues
// its threads must leave every one of them unchanged.
func TestF9DispatchCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size F9 machines")
	}
	want := []struct {
		priority     int
		ran, retired uint64
	}{
		{1, 6227990, 6227890},
		{8, 6227962, 6236962},
	}
	for _, w := range want {
		m, _, err := f9Machine(w.priority, 100)
		if err != nil {
			t.Fatal(err)
		}
		if ran, retired := m.Scheduler().Ran(), m.Retired(); ran != w.ran || retired != w.retired {
			t.Errorf("priority %d: Ran %d Retired %d, want %d %d", w.priority, ran, retired, w.ran, w.retired)
		}
	}
}
