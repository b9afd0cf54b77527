// Package bench is the experiment harness: one registered experiment per
// table/figure in DESIGN.md §3, plus the simulator-system experiments (S1,
// L1, SV1, E1), each producing one typed Result. The CLI (cmd/nocsim) and
// the repository-root benchmarks both drive this registry, so the printed
// rows and the testing.B measurements come from the same code.
package bench

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"nocs/internal/faultinject"
	"nocs/internal/machine"
	"nocs/internal/metrics"
	"nocs/internal/sim"
	"nocs/internal/snapshot"
	"nocs/internal/trace"
)

// RunConfig parameterizes an experiment run.
type RunConfig struct {
	// Seed is the master RNG seed; identical seeds give identical tables.
	Seed uint64
	// Quick reduces sample counts for fast CI / testing.B iterations.
	Quick bool
	// Parallel is the maximum number of independent sweep points an
	// experiment may execute concurrently. Every sweep point already builds
	// its own engine/machine/RNG from the master seed, so points share no
	// state; results are merged in point order, which keeps the rendered
	// tables byte-identical at any setting. 0 or 1 means serial.
	Parallel int
	// Tracer, when non-nil, is attached to the machines and queueing
	// servers that tracing-aware experiments build. Machines fork one trace
	// buffer per shard and run sharded as usual, but experiments and sweep
	// points run one at a time regardless of Parallel, so buffers are
	// forked and filled in a deterministic order.
	Tracer *trace.Tracer
	// Faults, when non-nil, arms deterministic seeded fault injection
	// (DESIGN.md §10) on the machines built by fault-aware experiments
	// (F2's mwait path, F16). nil keeps every machine fault-free and every
	// table byte-identical to the plain run.
	Faults *faultinject.Plan
	// FromSnapshot, when non-nil, warm-starts machines from this decoded
	// checkpoint (DESIGN.md §13) instead of a cold boot: sweeps fork one
	// warmed-up machine across parameter points rather than re-warming per
	// point. Builders apply it by calling WarmStart AFTER construction is
	// complete (binding programs, booting threads, scheduling injections),
	// because restore replaces every cold-boot event with the checkpoint's.
	// The construction must rebuild the topology the checkpoint was taken
	// on (cores, shards, threads, devices, attached components).
	FromSnapshot *snapshot.Snapshot
	// Checkpoint, when Every > 0 and Sink is non-nil, pauses
	// checkpoint-aware experiments (E1) every Every simulated cycles and
	// hands Sink the serialized machine checkpoint taken there. The zero
	// value checkpoints nothing.
	Checkpoint struct {
		Every sim.Cycles
		Sink  func(at sim.Cycles, ckpt []byte) error
	}
}

// NewMachine builds an experiment machine, threading the config's fault
// plan and tracer through the machine options. Experiments constructing
// machines this way get `-faults` and `-trace` composition for free:
// injected faults appear as instants on the machine's faults track.
func (cfg RunConfig) NewMachine(opts ...machine.Option) *machine.Machine {
	if cfg.Faults != nil {
		opts = append(opts, machine.WithFaultPlan(*cfg.Faults))
	}
	if cfg.Tracer != nil {
		opts = append(opts, machine.WithTracer(cfg.Tracer))
	}
	return machine.New(opts...)
}

// WarmStart finalizes a fully constructed machine: when cfg.FromSnapshot is
// set, m restores from it — fast-forwarding to the checkpoint's cycle and
// discarding the cold-boot events scheduled during construction — and the
// caller continues from there. A nil FromSnapshot is a no-op, so builders
// can call this unconditionally as their last step.
func (cfg RunConfig) WarmStart(m *machine.Machine) error {
	if cfg.FromSnapshot == nil {
		return nil
	}
	if err := m.RestoreFrom(cfg.FromSnapshot); err != nil {
		return fmt.Errorf("bench: warm start from snapshot: %w", err)
	}
	return nil
}

// DefaultConfig is the reproduction configuration used by the CLI.
func DefaultConfig() RunConfig { return RunConfig{Seed: 20210531} } // HotOS '21 day one

// Result is an experiment's output.
type Result struct {
	ID      string           `json:"id"`
	Title   string           `json:"title"`
	Claim   string           `json:"claim,omitempty"`
	Tables  []*metrics.Table `json:"tables"`
	Checks  []Check          `json:"checks,omitempty"`
	Notes   []string         `json:"notes,omitempty"`
	Metrics []Metric         `json:"metrics,omitempty"`
}

// Check is one paper claim an experiment states over its own measured
// values, evaluated on every run at every size. Name says what must hold;
// Detail gives the values it was judged on.
type Check struct {
	Name   string `json:"name"`
	Holds  bool   `json:"holds"`
	Detail string `json:"detail"`
}

// check states one claim; detail is a format over the compared values.
func (r *Result) check(name string, holds bool, detail string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, Holds: holds, Detail: fmt.Sprintf(detail, args...)})
}

// Metric is one named scalar an experiment reports beside its tables.
type Metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// String renders the result for terminal output. A check that holds prints
// nothing; a failed one prints one "check failed" line after the tables.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n", r.ID, r.Title)
	if r.Claim != "" {
		fmt.Fprintf(&b, "Paper claim: %s\n\n", r.Claim)
	}
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, c := range r.Checks {
		if !c.Holds {
			fmt.Fprintf(&b, "check failed: %s: %s\n", c.Name, c.Detail)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	for _, m := range r.Metrics {
		fmt.Fprintf(&b, "metric: %s = %s %s\n", m.Name, strconv.FormatFloat(m.Value, 'f', -1, 64), m.Unit)
	}
	return b.String()
}

// Experiment suites. The paper suite is what -all runs and
// results_full.txt holds. The system suite measures the simulator itself
// (scaling, lock contention, serving, checkpointed endurance); its results
// carry host wall times, so it stays out of the golden file.
const (
	SuitePaper  = "paper"
	SuiteSystem = "system"
)

// Experiment is one reproducible table/figure.
type Experiment struct {
	ID    string
	Title string
	Claim string
	Suite string // SuitePaper when empty
	Run   func(cfg RunConfig) (*Result, error)
}

var registry = map[string]*Experiment{}

// Register adds an experiment; duplicate IDs panic at init time.
func Register(e *Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("bench: duplicate experiment %q", e.ID))
	}
	if e.Suite == "" {
		e.Suite = SuitePaper
	}
	registry[e.ID] = e
}

// Get returns an experiment by ID (case-insensitive).
func Get(id string) (*Experiment, bool) {
	e, ok := registry[strings.ToUpper(id)]
	return e, ok
}

// IDs returns the paper suite's experiment IDs in a stable order.
func IDs() []string { return SuiteIDs(SuitePaper) }

// SuiteIDs returns one suite's experiment IDs, grouped by letter prefix
// (A, F, T, …) and numeric within a prefix.
func SuiteIDs(suite string) []string {
	var ids []string
	for id, e := range registry {
		if e.Suite == suite {
			ids = append(ids, id)
		}
	}
	key := func(id string) (string, int) {
		i := strings.IndexAny(id, "0123456789")
		if i < 0 {
			return id, 0
		}
		n, _ := strconv.Atoi(id[i:])
		return id[:i], n
	}
	sort.Slice(ids, func(i, j int) bool {
		pi, ni := key(ids[i])
		pj, nj := key(ids[j])
		if pi != pj {
			return pi < pj
		}
		return ni < nj
	})
	return ids
}

// Run executes an experiment by ID.
func Run(id string, cfg RunConfig) (*Result, error) {
	e, ok := Get(id)
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", id,
			append(IDs(), SuiteIDs(SuiteSystem)...))
	}
	res, err := e.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", id, err)
	}
	res.ID, res.Title, res.Claim = e.ID, e.Title, e.Claim
	return res, nil
}

// shardedWorkers is the worker count of the sharded pass in every
// serial-vs-sharded identity check (S1, L1, SV1): one per host CPU, but
// never fewer than two, because a one-worker machine is the serial oracle
// and the check would compare the oracle with itself.
func shardedWorkers() int { return max(2, runtime.GOMAXPROCS(0)) }

// requireSharded fails a sharded pass whose machine fell back to one
// worker, the serial oracle, which would make its identity check vacuous.
func requireSharded(m *machine.Machine) error {
	if w := m.Scheduler().Workers(); w < 2 {
		return fmt.Errorf("sharded pass runs on %d worker, so it would be compared with itself", w)
	}
	return nil
}

// Outcome pairs one experiment's result with its error.
type Outcome struct {
	ID  string
	Res *Result
	Err error
}

// RunAll executes the given experiments with up to parallel running at once.
// Every experiment builds its own engine and machines, so concurrent runs
// share no simulation state; outcomes are returned in input order, which
// makes the rendered output independent of host scheduling. A serial run
// (parallel <= 1, or any traced run) is a plain loop, so experiments fork
// from a shared tracer in input order.
func RunAll(ids []string, cfg RunConfig, parallel int) []Outcome {
	out := make([]Outcome, len(ids))
	fan := cfg
	fan.Parallel = parallel
	// fn records each error in its outcome and never fails, so every
	// experiment runs.
	ForEachPoint(fan, len(ids), func(i int) error {
		res, err := Run(ids[i], cfg)
		out[i] = Outcome{ID: ids[i], Res: res, Err: err}
		return nil
	})
	return out
}

// ForEachPoint runs fn(i) for every sweep point i in [0, n), executing up to
// cfg.Parallel points concurrently. fn must be self-contained per point
// (own engine/machine/RNG seeded from the master seed) and record its output
// into an index-addressed slot, so the caller's merge order — and therefore
// the printed tables — is identical whether points run serially or not.
// The error from the lowest-indexed failing point is returned.
func ForEachPoint(cfg RunConfig, n int, fn func(i int) error) error {
	if cfg.Parallel <= 1 || cfg.Tracer != nil {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	sem := make(chan struct{}, cfg.Parallel)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
