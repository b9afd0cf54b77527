package bench

import (
	"encoding/json"
	"runtime"
	"strconv"
	"strings"
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
// it, so `nocsim -format json` carries everything the table output does.
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

func TestResultRendering(t *testing.T) {
	r := MustRun("T1", quickCfg)
	s := r.String()
	for _, want := range []string{"### T1", "Paper claim:", "0b1110", "note:"} {
		if !strings.Contains(s, want) {
			t.Fatalf("result missing %q:\n%s", want, s)
		}
	}
}

// cell extracts the table cell at (rowContains, col) from a rendered table.
func findRow(t *testing.T, tbl fmt_Stringer, key string) []string {
	t.Helper()
	for _, line := range strings.Split(tbl.String(), "\n") {
		if strings.Contains(line, key) {
			return strings.Fields(line)
		}
	}
	t.Fatalf("no row containing %q in\n%s", key, tbl)
	return nil
}

type fmt_Stringer interface{ String() string }

// numericLast parses the float in the given field position from the end.
func numAt(t *testing.T, fields []string, fromEnd int) float64 {
	t.Helper()
	f := fields[len(fields)-1-fromEnd]
	v, err := strconv.ParseFloat(strings.TrimSuffix(f, "MB"), 64)
	if err != nil {
		t.Fatalf("field %q not numeric: %v", f, err)
	}
	return v
}

func TestT1DeterministicAndExact(t *testing.T) {
	a := MustRun("T1", quickCfg).String()
	b := MustRun("T1", quickCfg).String()
	if a != b {
		t.Fatal("T1 not deterministic")
	}
}

func TestT2PaperArithmetic(t *testing.T) {
	r := MustRun("T2", quickCfg)
	row := findRow(t, r.Tables[0], "RF")
	if v := numAt(t, row, 0); v != 83 {
		t.Fatalf("vector threads in RF = %v, want 83", v)
	}
	if v := numAt(t, row, 1); v != 240 {
		t.Fatalf("base threads in RF = %v, want 240", v)
	}
}

func TestF1Shape(t *testing.T) {
	r := MustRun("F1", quickCfg)
	mwait := numAt(t, findRow(t, r.Tables[0], "mwait"), 4) // p50 column
	irq := numAt(t, findRow(t, r.Tables[0], "legacy IRQ"), 4)
	poll := numAt(t, findRow(t, r.Tables[0], "polling"), 4)
	// IRQ must be ~an order of magnitude slower than mwait.
	if irq < 5*mwait {
		t.Fatalf("IRQ p50 %v not >> mwait p50 %v", irq, mwait)
	}
	// Polling detects fastest (it never sleeps) but is same order as mwait.
	if poll > 3*mwait {
		t.Fatalf("polling p50 %v implausibly slow vs mwait %v", poll, mwait)
	}
}

func TestF2Shape(t *testing.T) {
	r := MustRun("F2", quickCfg)
	tbl := r.Tables[0].String()
	// At the highest load, mwait app throughput must beat polling's (polling
	// burns a thread); at low load, mwait latency must beat interrupts.
	var mwaitWork, pollWork, irqWork, mwaitP50, irqP50 float64
	for _, line := range strings.Split(tbl, "\n") {
		f := strings.Fields(line)
		if len(f) < 6 {
			continue
		}
		switch {
		case f[0] == "0.80" && f[1] == "mwait":
			mwaitWork = parseF(t, f[len(f)-1])
		case f[0] == "0.80" && f[1] == "polling":
			pollWork = parseF(t, f[len(f)-1])
		case f[0] == "0.80" && f[1] == "interrupt":
			irqWork = parseF(t, f[len(f)-1])
		case f[0] == "0.20" && f[1] == "mwait":
			mwaitP50 = parseF(t, f[3])
		case f[0] == "0.20" && f[1] == "interrupt":
			irqP50 = parseF(t, f[3])
		}
	}
	if mwaitWork <= pollWork {
		t.Fatalf("mwait app work %v not above polling %v (no wasted core win)", mwaitWork, pollWork)
	}
	if mwaitWork <= irqWork {
		t.Fatalf("mwait app work %v not above interrupt %v", mwaitWork, irqWork)
	}
	if mwaitP50 >= irqP50 {
		t.Fatalf("low-load mwait p50 %v not below interrupt p50 %v", mwaitP50, irqP50)
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestF3Shape(t *testing.T) {
	r := MustRun("F3", quickCfg)
	syncC := numAt(t, findRow(t, r.Tables[0], "in-thread"), 2)
	hw := numAt(t, findRow(t, r.Tables[0], "dedicated syscall"), 5)
	if hw >= syncC {
		t.Fatalf("hw-thread syscall %v not cheaper than sync %v", hw, syncC)
	}
}

func TestF4Shape(t *testing.T) {
	r := MustRun("F4", quickCfg)
	legacy := numAt(t, findRow(t, r.Tables[0], "KVM"), 1)
	nocs := numAt(t, findRow(t, r.Tables[0], "hardware thread"), 1)
	if nocs >= legacy {
		t.Fatalf("hw-thread exits %v not cheaper than in-thread %v", nocs, legacy)
	}
}

func TestF5Shape(t *testing.T) {
	r := MustRun("F5", quickCfg)
	intOnly := numAt(t, findRow(t, r.Tables[0], "integer-only"), 4)
	withFP := numAt(t, findRow(t, r.Tables[0], "+save/restore"), 5)
	if withFP <= intOnly {
		t.Fatalf("FP kernel %v not pricier than integer-only %v", withFP, intOnly)
	}
}

func TestF6Shape(t *testing.T) {
	r := MustRun("F6", quickCfg)
	mono := numAt(t, findRow(t, r.Tables[0], "monolithic"), 4)
	ipc := numAt(t, findRow(t, r.Tables[0], "scheduler"), 1)
	direct := numAt(t, findRow(t, r.Tables[0], "mailbox"), 2)
	if !(direct < ipc) {
		t.Fatalf("direct %v not below scheduler IPC %v", direct, ipc)
	}
	if ipc < mono {
		t.Fatalf("scheduler IPC %v below monolithic %v", ipc, mono)
	}
	// Direct IPC latency must include the 800-cycle service body.
	if direct < 800 {
		t.Fatalf("direct IPC %v below the service body cost", direct)
	}
}

func TestF7Shape(t *testing.T) {
	r := MustRun("F7", quickCfg)
	bimodal := r.Tables[1].String()
	// At load 0.8, FCFS p99 must be far above PS p99 for the bimodal.
	var fcfsP99, psP99 float64
	for _, line := range strings.Split(bimodal, "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || f[0] != "0.80" {
			continue
		}
		switch f[1] {
		case "legacy-fcfs":
			fcfsP99 = parseF(t, f[3])
		case "nocs-ps":
			psP99 = parseF(t, f[3])
		}
	}
	if fcfsP99 < 3*psP99 {
		t.Fatalf("bimodal load 0.8: FCFS p99 %v not >> PS p99 %v", fcfsP99, psP99)
	}
}

func TestF8Shape(t *testing.T) {
	r := MustRun("F8", quickCfg)
	rf := numAt(t, findRow(t, r.Tables[0], "RF"), 4)
	_ = rf
	rows := r.Tables[0].String()
	if !strings.Contains(rows, "20") || !strings.Contains(rows, "420") {
		t.Fatalf("F8 tiers missing expected costs:\n%s", rows)
	}
}

func TestF9Shape(t *testing.T) {
	r := MustRun("F9", quickCfg)
	fair := numAt(t, findRow(t, r.Tables[0], "fair"), 2)
	crit := numAt(t, findRow(t, r.Tables[0], "time-critical"), 2)
	if crit >= fair {
		t.Fatalf("priority p50 %v not below fair %v", crit, fair)
	}
}

func TestF10Shape(t *testing.T) {
	r := MustRun("F10", quickCfg)
	nocs := numAt(t, findRow(t, r.Tables[0], "hw thread per RPC"), 3)
	legacy := numAt(t, findRow(t, r.Tables[0], "software threads"), 3)
	if nocs >= legacy {
		t.Fatalf("nocs fanout p50 %v not below legacy %v", nocs, legacy)
	}
}

func TestF11Shape(t *testing.T) {
	r := MustRun("F11", quickCfg)
	trusted := numAt(t, findRow(t, r.Tables[0], "KVM"), 0)
	untrusted := numAt(t, findRow(t, r.Tables[0], "deprivileged"), 0)
	nocs := numAt(t, findRow(t, r.Tables[0], "hw threads"), 0)
	if !(untrusted > trusted) {
		t.Fatalf("legacy deprivileged %v not above trusted %v", untrusted, trusted)
	}
	if !(nocs < untrusted) {
		t.Fatalf("nocs chain %v not below legacy deprivileged %v", nocs, untrusted)
	}
}

func TestA1Shape(t *testing.T) {
	r := MustRun("A1", quickCfg)
	pool := r.Tables[1].String()
	var small, large float64
	for _, line := range strings.Split(pool, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		switch f[0] {
		case "4":
			small = parseF(t, f[2]) // p99
		case "1024":
			large = parseF(t, f[2])
		}
	}
	if large >= small {
		t.Fatalf("1024-thread p99 %v not below 4-thread p99 %v (pool-size claim)", large, small)
	}
}

func TestA2Shape(t *testing.T) {
	r := MustRun("A2", quickCfg)
	s := r.Tables[0].String()
	invisible := findRow(t, r.Tables[0], "today's x86")
	if invisible[len(invisible)-3] != "0" {
		t.Fatalf("invisible-DMA row should serve 0 events:\n%s", s)
	}
}

func TestA3Shape(t *testing.T) {
	r := MustRun("A3", quickCfg)
	s := r.Tables[0].String()
	// With prefetch and a 50-cycle gap, the cost must drop to 20.
	found := false
	for _, line := range strings.Split(s, "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && f[0] == "on" && f[1] == "50" && f[2] == "20" {
			found = true
		}
	}
	if !found {
		t.Fatalf("prefetch at gap 50 should cost 20:\n%s", s)
	}
}

func TestF12Shape(t *testing.T) {
	r := MustRun("F12", quickCfg)
	nocs := numAt(t, findRow(t, r.Tables[0], "nocs driver"), 1)
	legacy := numAt(t, findRow(t, r.Tables[0], "legacy IRQ"), 1)
	// The nocs software overhead must be far below the legacy chain's.
	nocsOv := numAt(t, findRow(t, r.Tables[0], "nocs driver"), 0)
	legacyOv := numAt(t, findRow(t, r.Tables[0], "legacy IRQ"), 0)
	if nocs >= legacy {
		t.Fatalf("nocs IO %v not below legacy %v", nocs, legacy)
	}
	if nocsOv*5 > legacyOv {
		t.Fatalf("nocs overhead %v not << legacy overhead %v", nocsOv, legacyOv)
	}
}

func TestF13Shape(t *testing.T) {
	r := MustRun("F13", quickCfg)
	mon := numAt(t, findRow(t, r.Tables[0], "monitor write"), 2)
	ipi := numAt(t, findRow(t, r.Tables[0], "IPI"), 2)
	if mon*10 > ipi {
		t.Fatalf("monitor wake %v not an order below IPI chain %v", mon, ipi)
	}
}

func TestF14Shape(t *testing.T) {
	r := MustRun("F14", quickCfg)
	nocs := numAt(t, findRow(t, r.Tables[0], "hw-thread chain"), 1)
	legacy := numAt(t, findRow(t, r.Tables[0], "sidecar"), 1)
	if nocs >= legacy {
		t.Fatalf("nocs proxy %v not below legacy %v", nocs, legacy)
	}
	// Overhead beyond the 900 cycles of real work must stay small.
	if ov := numAt(t, findRow(t, r.Tables[0], "hw-thread chain"), 0); ov > 500 {
		t.Fatalf("nocs proxy overhead %v too high", ov)
	}
}

func TestF15Shape(t *testing.T) {
	r := MustRun("F15", quickCfg)
	nocs := numAt(t, findRow(t, r.Tables[0], "doorbell"), 2)
	tick10 := numAt(t, findRow(t, r.Tables[0], "10µs"), 2)
	if nocs*10 > tick10 {
		t.Fatalf("doorbell scheduler %v not far below 10µs tick %v", nocs, tick10)
	}
}

func TestF16Shape(t *testing.T) {
	r := MustRun("F16", quickCfg)
	nocs := numAt(t, findRow(t, r.Tables[0], "nocs netstack"), 2)
	legacy := numAt(t, findRow(t, r.Tables[0], "legacy kernel stack"), 2)
	if nocs >= legacy {
		t.Fatalf("nocs echo p50 %v not below legacy %v", nocs, legacy)
	}
}

func TestA4Shape(t *testing.T) {
	r := MustRun("A4", quickCfg)
	unpinned := numAt(t, findRow(t, r.Tables[0], "unpinned"), 0)
	pinned := numAt(t, findRow(t, r.Tables[0], "pinned in RF"), 0)
	if pinned != 20 {
		t.Fatalf("pinned start %v, want 20", pinned)
	}
	if unpinned <= pinned {
		t.Fatalf("unpinned %v not above pinned %v", unpinned, pinned)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	for _, id := range []string{"F7", "F10", "A1"} {
		a := MustRun(id, quickCfg).String()
		b := MustRun(id, quickCfg).String()
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
		serial := MustRun(id, quickCfg)
		par := quickCfg
		par.Parallel = 8
		parallel := MustRun(id, par)
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
