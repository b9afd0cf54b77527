// Package workload generates the synthetic workloads driving the
// experiments: open-loop arrival processes and service-time distributions.
//
// The tail-latency experiment (F7) relies on the paper's §4 claim that
// "the combination of PS scheduling with thread-per-request will actually
// provide superior performance for server workloads with high execution-time
// variability [46, 80]". High-variability service is conventionally modeled
// with bimodal (99% short / 1% long) or heavy-tailed (Pareto) distributions;
// both are provided alongside the low-variability controls (deterministic,
// exponential).
package workload

import (
	"fmt"

	"nocs/internal/sim"
)

// Arrivals produces interarrival gaps for an open-loop workload.
type Arrivals interface {
	// Next returns the gap to the next arrival, ≥ 1 cycle.
	Next() sim.Cycles
}

// PoissonArrivals models a Poisson process with the given mean interarrival
// time in cycles.
//
// Gaps are integers but the underlying exponential draws are not, so each
// Next rounds to nearest and carries the residual into the following draw:
// over any window the integer arrival train stays within one cycle of the
// real-valued process, and the realized mean gap converges to Mean exactly
// (the old truncate-then-clamp version ran ~0.5 cycles short, so realized
// offered load drifted above target — worst at small means). Means ≤ 1 cycle
// still realize as all-1 gap trains: a gap cannot be shorter than a cycle.
type PoissonArrivals struct {
	Mean  float64
	rng   *sim.RNG
	carry float64 // rounding residual owed to the next gap
}

// NewPoissonArrivals creates a Poisson arrival process.
func NewPoissonArrivals(meanCycles float64, rng *sim.RNG) *PoissonArrivals {
	if meanCycles <= 0 {
		panic(fmt.Sprintf("workload: non-positive mean interarrival %v", meanCycles))
	}
	return &PoissonArrivals{Mean: meanCycles, rng: rng}
}

// Next draws an exponential interarrival gap, carry-rounded to nearest.
func (p *PoissonArrivals) Next() sim.Cycles {
	return roundedGap(p.rng.Exp(p.Mean), &p.carry)
}

// roundedGap converts a real-valued gap into an integer one ≥ 1, rounding to
// nearest and pushing the residual into *carry so no duration is ever created
// or destroyed across a draw sequence.
func roundedGap(raw float64, carry *float64) sim.Cycles {
	x := raw + *carry
	g := sim.Cycles(x + 0.5) // round to nearest; x+0.5 truncation == round for x ≥ -0.5
	if g < 1 {
		g = 1
	}
	*carry = x - float64(g)
	return g
}

// ParetoArrivals models a bursty open-loop process: heavy-tailed Pareto
// interarrival gaps with the given mean. Most gaps are much shorter than the
// mean (a burst) and rare gaps are very long (a lull) — the classic
// datacenter traffic shape, in contrast to the memoryless Poisson process.
// Gaps use the same carry-compensated rounding as PoissonArrivals.
type ParetoArrivals struct {
	Xm    float64 // scale (minimum real-valued gap)
	Alpha float64 // shape; > 1 so the mean is finite
	rng   *sim.RNG
	carry float64
}

// NewParetoArrivals creates a bursty arrival process with the given mean
// interarrival time. It panics on a non-positive mean or alpha <= 1
// (infinite mean), matching the NewPoissonArrivals convention.
func NewParetoArrivals(meanCycles, alpha float64, rng *sim.RNG) *ParetoArrivals {
	if meanCycles <= 0 {
		panic(fmt.Sprintf("workload: non-positive mean interarrival %v", meanCycles))
	}
	if alpha <= 1 {
		panic(fmt.Sprintf("workload: Pareto arrival shape %v has infinite mean (need alpha > 1)", alpha))
	}
	// Pareto(xm, alpha) has mean alpha*xm/(alpha-1); solve for xm.
	return &ParetoArrivals{Xm: meanCycles * (alpha - 1) / alpha, Alpha: alpha, rng: rng}
}

// Next draws a Pareto interarrival gap, carry-rounded to nearest.
func (p *ParetoArrivals) Next() sim.Cycles {
	return roundedGap(p.rng.Pareto(p.Xm, p.Alpha), &p.carry)
}

// Service draws per-request service demands in cycles.
type Service interface {
	// Sample returns one service demand, ≥ 1 cycle.
	Sample() sim.Cycles
	// Mean returns the distribution mean in cycles.
	Mean() float64
	// Name identifies the distribution in reports.
	Name() string
}

// Deterministic service: every request costs exactly C cycles.
type Deterministic struct{ C sim.Cycles }

// Sample returns the constant demand.
func (d Deterministic) Sample() sim.Cycles {
	if d.C < 1 {
		return 1
	}
	return d.C
}

// Mean returns the constant demand.
func (d Deterministic) Mean() float64 { return float64(d.Sample()) }

// Name identifies the distribution.
func (d Deterministic) Name() string { return "deterministic" }

// Exponential service with the given mean.
type Exponential struct {
	M   float64
	RNG *sim.RNG
}

// Sample draws an exponential demand, rounded to nearest (truncation ran
// every demand half a cycle short of the configured mean).
func (e Exponential) Sample() sim.Cycles {
	v := sim.Cycles(e.RNG.Exp(e.M) + 0.5)
	if v < 1 {
		v = 1
	}
	return v
}

// Mean returns the configured mean.
func (e Exponential) Mean() float64 { return e.M }

// Name identifies the distribution.
func (e Exponential) Name() string { return "exponential" }

// Bimodal service: Short with probability PShort, otherwise Long. The
// classic high-variability server profile (e.g. 99% × 1 µs, 1% × 100 µs).
// Construct with NewBimodal, which validates the parameters.
type Bimodal struct {
	Short  sim.Cycles
	Long   sim.Cycles
	PShort float64
	RNG    *sim.RNG
}

// NewBimodal creates a bimodal service distribution. It panics on a
// non-positive mode or a PShort outside [0, 1] — either would silently skew
// every cell of a tail-latency sweep — matching the NewPoissonArrivals
// convention.
func NewBimodal(short, long sim.Cycles, pShort float64, rng *sim.RNG) Bimodal {
	if short < 1 || long < 1 {
		panic(fmt.Sprintf("workload: non-positive bimodal mode %d/%d", short, long))
	}
	if pShort < 0 || pShort > 1 {
		panic(fmt.Sprintf("workload: bimodal PShort %v outside [0, 1]", pShort))
	}
	return Bimodal{Short: short, Long: long, PShort: pShort, RNG: rng}
}

// Sample draws from the mixture.
func (b Bimodal) Sample() sim.Cycles {
	v := sim.Cycles(b.RNG.Bimodal(float64(b.Short), float64(b.Long), b.PShort))
	if v < 1 {
		v = 1
	}
	return v
}

// Mean returns the mixture mean.
func (b Bimodal) Mean() float64 {
	return b.PShort*float64(b.Short) + (1-b.PShort)*float64(b.Long)
}

// Name identifies the distribution.
func (b Bimodal) Name() string { return "bimodal" }

// Request is one generated request.
type Request struct {
	ID      int
	Arrival sim.Cycles
	Demand  sim.Cycles
}

// Generate produces n requests from the arrival process and service
// distribution, with arrival times starting at base. It materializes the
// whole train, an O(n) slice, so only tests and the benchmark's queueing
// probes use it: the experiments (F7, A1) and the serving scenarios stream
// from a Source instead. The two are draw-for-draw identical.
func Generate(n int, base sim.Cycles, arr Arrivals, svc Service) []Request {
	reqs := make([]Request, n)
	at := base
	for i := range reqs {
		at += arr.Next()
		reqs[i] = Request{ID: i, Arrival: at, Demand: svc.Sample()}
	}
	return reqs
}

// Source streams the request sequence Generate would materialize, one
// request at a time: given the same base, arrival process, and service
// distribution (same RNG cursors), n calls to Next reproduce Generate(n)
// element for element, in the same RNG draw order (gap first, then demand).
// Its own dynamic state is two words, so a 10^6-connection sweep holds one
// request in memory instead of all of them.
type Source struct {
	arr Arrivals
	svc Service
	at  sim.Cycles
	n   int
}

// NewSource creates a streaming request source with arrivals starting at
// base.
func NewSource(base sim.Cycles, arr Arrivals, svc Service) *Source {
	return &Source{arr: arr, svc: svc, at: base}
}

// Next draws and returns the next request.
func (s *Source) Next() Request {
	s.at += s.arr.Next()
	r := Request{ID: s.n, Arrival: s.at, Demand: s.svc.Sample()}
	s.n++
	return r
}

// Emitted returns how many requests have been drawn.
func (s *Source) Emitted() int { return s.n }

// MeanForLoad returns the mean interarrival time that produces the given
// offered load (utilization) on `servers` servers for a service mean.
// e.g. load 0.8 on 1 server with mean service 3000 gives interarrival 3750.
// Loads above 1 are deliberate overload — the interarrival shrinks below the
// per-server service mean and queues grow without bound; only load ≤ 0 is
// rejected (it has no interarrival at all).
func MeanForLoad(load float64, serviceMean float64, servers int) float64 {
	if load <= 0 || servers < 1 || serviceMean <= 0 {
		panic(fmt.Sprintf("workload: bad load parameters %v/%v/%d", load, serviceMean, servers))
	}
	return serviceMean / (load * float64(servers))
}
