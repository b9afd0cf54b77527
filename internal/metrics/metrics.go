// Package metrics provides the measurement plumbing for the experiment
// harness: log-bucketed latency histograms with bounded-error quantiles,
// throughput counters, and aligned table rendering for paper-style output.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"nocs/internal/sim"
)

// Histogram records non-negative int64 samples (cycles) in logarithmic
// buckets: values up to 64 are exact; above that, each power of two is split
// into 16 sub-buckets, bounding relative quantile error at ~6%.
//
// Buckets are a flat slice indexed by bucketOf — bucket index order IS value
// order, so quantiles are a single forward scan with no key sort, and
// recording is an array increment (zero allocations once the slice has grown
// to cover the sample range; the index is bounded by bucketOf(MaxInt64)).
type Histogram struct {
	buckets []uint64
	count   uint64
	sum     int64
	min     int64
	max     int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64}
}

const (
	histExactLimit = 64
	histSubBuckets = 16
)

// bucketOf maps a value to its bucket index: the value's power-of-two range
// split into 16 linear sub-buckets.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < histExactLimit {
		return int(v)
	}
	msb := 63 - bits.LeadingZeros64(uint64(v)) // ≥ 6 here
	sub := int((v >> uint(msb-4)) & (histSubBuckets - 1))
	return histExactLimit + (msb-6)*histSubBuckets + sub
}

// bucketLow returns the smallest value mapping to bucket index b.
func bucketLow(b int) int64 {
	if b < histExactLimit {
		return int64(b)
	}
	rel := b - histExactLimit
	msb := rel/histSubBuckets + 6
	sub := rel % histSubBuckets
	return (1 << uint(msb)) | (int64(sub) << uint(msb-4))
}

// grow extends the bucket slice to cover index b.
func (h *Histogram) grow(b int) {
	if b < len(h.buckets) {
		return
	}
	n := len(h.buckets) * 2
	if n < b+1 {
		n = b + 1
	}
	if n < histExactLimit {
		n = histExactLimit
	}
	nb := make([]uint64, n)
	copy(nb, h.buckets)
	h.buckets = nb
}

// Record adds one sample.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	b := bucketOf(v)
	if b >= len(h.buckets) {
		h.grow(b)
	}
	h.buckets[b]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// RecordCycles adds one sim.Cycles sample.
func (h *Histogram) RecordCycles(c sim.Cycles) { h.Record(int64(c)) }

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the sample mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min and Max return the exact extremes (0 when empty).
func (h *Histogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample.
func (h *Histogram) Max() int64 { return h.max }

// Quantile returns an upper-bound estimate of the q-quantile (0 ≤ q ≤ 1).
// The estimate is the lower bound of the first bucket whose cumulative count
// reaches q, giving ≤ one-bucket error.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for b, n := range h.buckets {
		if n == 0 {
			continue
		}
		cum += n
		if cum >= target {
			lo := bucketLow(b)
			if lo < h.min {
				lo = h.min
			}
			if lo > h.max {
				lo = h.max
			}
			return lo
		}
	}
	return h.max
}

// Summary returns (p50, p99, p999, mean).
func (h *Histogram) Summary() (p50, p99, p999 int64, mean float64) {
	return h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999), h.Mean()
}

// Table renders paper-style aligned tables. Cells are stored formatted, so
// a JSON round trip reproduces the rendering exactly.
type Table struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Row appends a row; values are formatted with %v.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}

// Len returns the number of data rows.
func (t *Table) Len() int { return len(t.Rows) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, hd := range t.Headers {
		widths[i] = len(hd)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (quoted fields where needed),
// one header row plus data rows; the title is omitted.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// CyclesToUs converts cycles to microseconds at the given frequency.
func CyclesToUs(c int64, freqGHz float64) float64 {
	if freqGHz <= 0 {
		freqGHz = sim.DefaultFrequencyGHz
	}
	return float64(c) / (freqGHz * 1e3)
}
