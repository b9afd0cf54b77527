package workload

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"nocs/internal/sim"
	"nocs/internal/snapshot"
)

func TestPoissonArrivalsMean(t *testing.T) {
	p := NewPoissonArrivals(1000, sim.NewRNG(42))
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		g := p.Next()
		if g < 1 {
			t.Fatal("gap below 1")
		}
		sum += float64(g)
	}
	mean := sum / n
	if math.Abs(mean-1000) > 25 {
		t.Fatalf("mean gap %v, want ~1000", mean)
	}
}

func TestPoissonArrivalsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive mean accepted")
		}
	}()
	NewPoissonArrivals(0, sim.NewRNG(1))
}

func TestDeterministicService(t *testing.T) {
	d := Deterministic{C: 3000}
	if d.Sample() != 3000 || d.Mean() != 3000 || d.Name() != "deterministic" {
		t.Fatal("deterministic")
	}
	if (Deterministic{C: 0}).Sample() != 1 {
		t.Fatal("clamp")
	}
}

func TestExponentialService(t *testing.T) {
	e := Exponential{M: 3000, RNG: sim.NewRNG(7)}
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += float64(e.Sample())
	}
	if mean := sum / n; math.Abs(mean-3000) > 75 {
		t.Fatalf("mean %v", mean)
	}
	if e.Mean() != 3000 || e.Name() != "exponential" {
		t.Fatal("metadata")
	}
}

func TestBimodalService(t *testing.T) {
	b := NewBimodal(3000, 300000, 0.99, sim.NewRNG(5))
	short, long := 0, 0
	for i := 0; i < 100000; i++ {
		switch b.Sample() {
		case 3000:
			short++
		case 300000:
			long++
		default:
			t.Fatal("unexpected value")
		}
	}
	frac := float64(short) / float64(short+long)
	if math.Abs(frac-0.99) > 0.005 {
		t.Fatalf("short fraction %v", frac)
	}
	wantMean := 0.99*3000 + 0.01*300000
	if math.Abs(b.Mean()-wantMean) > 1e-6 {
		t.Fatalf("mean %v, want %v", b.Mean(), wantMean)
	}
	if b.Name() != "bimodal" {
		t.Fatal("name")
	}
}

// Infinite-mean shapes must be rejected at construction, matching the
// NewPoissonArrivals panic convention — the old Mean fallback of reporting
// the scale silently skewed every load target computed from it.
func TestParetoRejectsInfiniteMean(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("alpha=0.9", func() { NewParetoArrivals(1000, 0.9, sim.NewRNG(1)) })
	mustPanic("alpha=1", func() { NewParetoArrivals(1000, 1, sim.NewRNG(1)) })
	mustPanic("mean=0", func() { NewParetoArrivals(0, 2, sim.NewRNG(1)) })
}

// fixedGap is an evenly spaced arrival train.
type fixedGap sim.Cycles

func (g fixedGap) Next() sim.Cycles { return sim.Cycles(g) }

func TestGenerate(t *testing.T) {
	reqs := Generate(100, 500, fixedGap(10), Deterministic{C: 7})
	if len(reqs) != 100 {
		t.Fatal("count")
	}
	for i, r := range reqs {
		if r.ID != i || r.Demand != 7 {
			t.Fatalf("req %d: %+v", i, r)
		}
		if r.Arrival != sim.Cycles(500+10*(i+1)) {
			t.Fatalf("arrival %d: %v", i, r.Arrival)
		}
	}
}

func TestGenerateMonotoneArrivalsProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := sim.NewRNG(seed)
		reqs := Generate(int(n), 0, NewPoissonArrivals(100, rng),
			Exponential{M: 50, RNG: rng.Split()})
		last := sim.Cycles(0)
		for _, r := range reqs {
			if r.Arrival <= last || r.Demand < 1 {
				return false
			}
			last = r.Arrival
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanForLoad(t *testing.T) {
	if got := MeanForLoad(0.8, 3000, 1); got != 3750 {
		t.Fatalf("MeanForLoad = %v", got)
	}
	if got := MeanForLoad(0.5, 3000, 4); got != 1500 {
		t.Fatalf("MeanForLoad multi-server = %v", got)
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("load=0", func() { MeanForLoad(0, 3000, 1) })
	mustPanic("load<0", func() { MeanForLoad(-0.5, 3000, 1) })
	mustPanic("servers=0", func() { MeanForLoad(0.8, 3000, 0) })
	mustPanic("serviceMean=0", func() { MeanForLoad(0.8, 0, 1) })
}

// Regression for the overload blocker: MeanForLoad used to panic on any
// load > 1, making it impossible to even express an overloaded sweep cell.
func TestMeanForLoadOverload(t *testing.T) {
	if got := MeanForLoad(1.2, 3000, 1); got != 2500 {
		t.Fatalf("MeanForLoad(1.2) = %v, want 2500", got)
	}
	if got := MeanForLoad(1.3, 4000, 16); math.Abs(got-4000/(1.3*16)) > 1e-9 {
		t.Fatalf("MeanForLoad(1.3, 4000, 16) = %v", got)
	}
}

// Regression for the truncation bug: the realized mean gap (hence realized
// offered load) must stay within 1% of nominal even at very small means,
// where truncate-then-clamp used to run the mean ~0.5 cycles short and the
// realized load up to ~10% hot.
func TestPoissonRealizedLoadWithinOnePercent(t *testing.T) {
	for _, mean := range []float64{5, 50, 5000} {
		p := NewPoissonArrivals(mean, sim.NewRNG(0xC0FFEE))
		const n = 400000
		var sum float64
		for i := 0; i < n; i++ {
			g := p.Next()
			if g < 1 {
				t.Fatal("gap below 1")
			}
			sum += float64(g)
		}
		realized := sum / n
		// realized load / nominal load == nominal gap / realized gap.
		loadErr := math.Abs(mean/realized - 1)
		if loadErr > 0.01 {
			t.Fatalf("mean %v: realized gap %v, load error %.2f%%",
				mean, realized, 100*loadErr)
		}
	}
}

func TestParetoArrivals(t *testing.T) {
	const mean, alpha = 800.0, 1.5
	p := NewParetoArrivals(mean, alpha, sim.NewRNG(11))
	if got := p.Alpha * p.Xm / (p.Alpha - 1); math.Abs(got-mean) > 1e-9 {
		t.Fatalf("configured mean %v, want %v", got, mean)
	}
	const n = 2000000 // heavy tail: slow CLT, need a long window
	var sum float64
	short := 0
	for i := 0; i < n; i++ {
		g := p.Next()
		if g < 1 {
			t.Fatal("gap below 1")
		}
		if float64(g) < mean {
			short++
		}
		sum += float64(g)
	}
	if realized := sum / n; math.Abs(realized-mean)/mean > 0.05 {
		t.Fatalf("realized mean gap %v, want ~%v", realized, mean)
	}
	// Burstiness: far more than half the gaps sit below the mean.
	if frac := float64(short) / n; frac < 0.75 {
		t.Fatalf("only %.0f%% of gaps below the mean; not heavy-tailed", 100*frac)
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("mean=0", func() { NewParetoArrivals(0, 1.5, sim.NewRNG(1)) })
	mustPanic("alpha=1", func() { NewParetoArrivals(800, 1, sim.NewRNG(1)) })
}

func TestNewBimodalValidation(t *testing.T) {
	b := NewBimodal(3000, 300000, 0.99, sim.NewRNG(5))
	if b.Short != 3000 || b.Long != 300000 || b.PShort != 0.99 {
		t.Fatalf("NewBimodal = %+v", b)
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("short=0", func() { NewBimodal(0, 300000, 0.99, sim.NewRNG(1)) })
	mustPanic("long=0", func() { NewBimodal(3000, 0, 0.99, sim.NewRNG(1)) })
	mustPanic("pshort<0", func() { NewBimodal(3000, 300000, -0.01, sim.NewRNG(1)) })
	mustPanic("pshort>1", func() { NewBimodal(3000, 300000, 1.01, sim.NewRNG(1)) })
}

// The streaming Source must reproduce Generate draw for draw.
func TestSourceMatchesGenerate(t *testing.T) {
	const n, base = 5000, 750
	mk := func() (Arrivals, Service) {
		rng := sim.NewRNG(21)
		return NewPoissonArrivals(120, rng), NewBimodal(50, 5000, 0.95, rng.Split())
	}
	arrG, svcG := mk()
	want := Generate(n, base, arrG, svcG)
	arrS, svcS := mk()
	src := NewSource(base, arrS, svcS)
	for i := 0; i < n; i++ {
		got := src.Next()
		if got != want[i] {
			t.Fatalf("request %d: Source %+v != Generate %+v", i, got, want[i])
		}
	}
	if src.Emitted() != n {
		t.Fatalf("emitted %d", src.Emitted())
	}
}

// A Source restored from a snapshot must continue the exact request stream.
func TestSourceSnapshotRoundTrip(t *testing.T) {
	mk := func() (*Source, *PoissonArrivals, Exponential) {
		rng := sim.NewRNG(31)
		arr := NewPoissonArrivals(90, rng)
		svc := Exponential{M: 400, RNG: rng.Split()}
		return NewSource(0, arr, svc), arr, svc
	}
	src, arr, svc := mk()
	for i := 0; i < 1000; i++ {
		src.Next()
	}
	b := snapshot.NewBuilder()
	w := b.Section("src")
	src.SnapshotState(w)
	arr.SnapshotState(w)
	SnapshotRNG(w, svc.RNG)
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var want []Request
	for i := 0; i < 100; i++ {
		want = append(want, src.Next())
	}
	src2, arr2, svc2 := mk()
	snap, err := snapshot.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sec, err := snap.Section("src")
	if err != nil {
		t.Fatal(err)
	}
	src2.RestoreState(sec)
	arr2.RestoreState(sec)
	RestoreRNG(sec, svc2.RNG)
	if err := sec.Err(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if got := src2.Next(); got != want[i] {
			t.Fatalf("request %d after restore: %+v != %+v", i, got, want[i])
		}
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	a := Generate(50, 0, NewPoissonArrivals(100, sim.NewRNG(9)), Exponential{M: 30, RNG: sim.NewRNG(10)})
	b := Generate(50, 0, NewPoissonArrivals(100, sim.NewRNG(9)), Exponential{M: 30, RNG: sim.NewRNG(10)})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs", i)
		}
	}
}
