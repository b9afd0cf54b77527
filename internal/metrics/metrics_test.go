package metrics

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"nocs/internal/sim"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram")
	}
	for _, v := range []int64{10, 20, 30} {
		h.Record(v)
	}
	if h.Count() != 3 || h.Mean() != 20 || h.Min() != 10 || h.Max() != 30 {
		t.Fatalf("count=%d mean=%v min=%d max=%d", h.Count(), h.Mean(), h.Min(), h.Max())
	}
	h.RecordCycles(sim.Cycles(40))
	if h.Count() != 4 {
		t.Fatal("RecordCycles")
	}
	h.Record(-5) // clamps to 0
	if h.Min() != 0 {
		t.Fatal("negative clamp")
	}
}

func TestSmallValuesExact(t *testing.T) {
	h := NewHistogram()
	for v := int64(0); v < 64; v++ {
		h.Record(v)
	}
	// Exact buckets below 64: the median of 0..63 is 32 (ceil(0.5*64)=32nd
	// sample = value 31; our estimator returns the bucket lower bound).
	if q := h.Quantile(0.5); q != 31 {
		t.Fatalf("p50 = %d", q)
	}
	if q := h.Quantile(0); q != 0 {
		t.Fatalf("p0 = %d", q)
	}
	if q := h.Quantile(1); q != 63 {
		t.Fatalf("p100 = %d", q)
	}
}

func TestQuantileErrorBound(t *testing.T) {
	// For any sample set, Quantile(q) must be within ~6.25% of the true
	// quantile (one sub-bucket).
	f := func(raw []uint32, qSel uint8) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		vals := make([]int64, len(raw))
		for i, r := range raw {
			vals[i] = int64(r % 10_000_000)
			h.Record(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		q := []float64{0.5, 0.9, 0.99, 0.999}[qSel%4]
		idx := int(math.Ceil(q*float64(len(vals)))) - 1
		if idx < 0 {
			idx = 0
		}
		truth := vals[idx]
		got := h.Quantile(q)
		// got is the lower bound of truth's bucket (or clamped): it must not
		// exceed truth and must be within one bucket width below it.
		if got > truth {
			return false
		}
		if truth >= 64 {
			width := float64(truth) / 16
			return float64(truth)-float64(got) <= width+1
		}
		return got == truth
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCountPreservedProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		h := NewHistogram()
		for _, r := range raw {
			h.Record(int64(r))
		}
		return h.Count() == uint64(len(raw))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummary(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 1000; i++ {
		h.Record(int64(i))
	}
	p50, p99, p999, mean := h.Summary()
	if p50 < 450 || p50 > 500 {
		t.Fatalf("p50 = %d", p50)
	}
	if p99 < 930 || p99 > 990 {
		t.Fatalf("p99 = %d", p99)
	}
	if p999 < 950 || p999 > 999 {
		t.Fatalf("p999 = %d", p999)
	}
	if math.Abs(mean-499.5) > 0.01 {
		t.Fatalf("mean = %v", mean)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("F9 latency", "config", "p50", "p99")
	tb.Row("baseline", int64(100), 3.14159)
	tb.Row("nocs", int64(7), 250.0)
	if tb.Len() != 2 {
		t.Fatal("Len")
	}
	s := tb.String()
	for _, want := range []string{"== F9 latency ==", "config", "p50", "baseline", "3.14", "250", "---"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table missing %q:\n%s", want, s)
		}
	}
	// Columns aligned: header line and data line have same prefix width.
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 {
		t.Fatalf("line count %d", len(lines))
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		3:       "3",
		3.14159: "3.14",
		123.456: "123.5",
		1000000: "1000000",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestCyclesToUs(t *testing.T) {
	if got := CyclesToUs(3000, 3.0); got != 1.0 {
		t.Fatalf("3000 cycles @3GHz = %v us", got)
	}
	if got := CyclesToUs(3000, 0); got != 1.0 {
		t.Fatalf("default freq: %v", got)
	}
}

func TestBucketRoundTripProperty(t *testing.T) {
	// bucketLow(bucketOf(v)) <= v and v stays within one sub-bucket width.
	f := func(raw uint64) bool {
		v := int64(raw % (1 << 50))
		b := bucketOf(v)
		lo := bucketLow(b)
		if lo > v {
			return false
		}
		if v < 64 {
			return lo == v
		}
		width := v / 16
		return v-lo <= width+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("x", "name", "value")
	tb.Row("plain", int64(3))
	tb.Row("with, comma", 1.5)
	tb.Row(`with "quote"`, int64(0))
	csv := tb.CSV()
	want := "name,value\nplain,3\n\"with, comma\",1.50\n\"with \"\"quote\"\"\",0\n"
	if csv != want {
		t.Fatalf("CSV:\n%q\nwant:\n%q", csv, want)
	}
}

// Record is called once per sample on the measurement hot path; once the
// bucket slice covers the sample range it must not allocate (ISSUE 1 guard).
func TestHistogramRecordAllocFree(t *testing.T) {
	h := NewHistogram()
	h.Record(1 << 40) // warm: grow the bucket slice past the sample range
	v := int64(0)
	if a := testing.AllocsPerRun(1000, func() {
		h.Record(v)
		v = (v*1664525 + 1013904223) % (1 << 40)
	}); a != 0 {
		t.Fatalf("Record allocates %.1f per op, want 0", a)
	}
}

// The flat-slice rewrite must keep quantiles identical to the bucket
// definition: a scan in index order is a scan in value order.
func TestQuantileScanOrderMatchesBucketOrder(t *testing.T) {
	h := NewHistogram()
	vals := []int64{3, 70, 70, 1000, 5000, 5000, 5000, 123456}
	for _, v := range vals {
		h.Record(v)
	}
	if got := h.Quantile(0); got != 3 {
		t.Fatalf("q0 = %d, want exact min 3", got)
	}
	if got := h.Quantile(1); got != 123456 {
		t.Fatalf("q1 = %d, want exact max 123456", got)
	}
	// p50 of 8 samples lands in the 4th: bucketLow of 1000's bucket ≤ 1000.
	if got := h.Quantile(0.5); got > 1000 || got < 70 {
		t.Fatalf("q0.5 = %d, want in (70, 1000]", got)
	}
}
