// Command nocsim runs the reproduction experiments for "A Case Against
// (Most) Context Switches" (HotOS '21) and prints their paper-style tables.
//
// Usage:
//
//	nocsim -list
//	nocsim -exp F1            # one experiment
//	nocsim -exp F1,F7,T2      # several
//	nocsim -all               # the paper suite (EXPERIMENTS.md input)
//	nocsim -all -quick        # reduced sample counts
//	nocsim -seed 7 -exp F7    # alternate workload seed
//	nocsim -all -parallel 8   # concurrent experiments, identical output
//	nocsim -all -format json  # tables, checks, notes and metrics as one JSON array
//	nocsim -all -cpuprofile cpu.pb.gz   # profile the simulator itself
//	nocsim -exp F1 -trace f1.json       # cycle trace, open at ui.perfetto.dev
//	nocsim -exp S1            # one 64-core machine, serial vs sharded
//	nocsim -exp L1 -quick     # CI-sized lock-contention sweep
//	nocsim -exp SV1           # datacenter serving cells, load × arrival × flavor
//	nocsim -exp E1 -checkpoint-every 100000 -checkpoint run.ckpt
//	                          # endurance run, periodic machine checkpoints
//	nocsim -exp E1 -resume run.ckpt     # warm-start from the last checkpoint
//
// -all runs the paper suite only; the system suite (S1, L1, SV1, E1)
// reports host wall times and runs by ID. `-parallel` runs independent
// experiments and sweep points concurrently; the identity-checked
// experiments also drive each sharded machine with one worker per host
// CPU (DESIGN.md §12). Neither changes a byte of the paper suite's output.
//
// Each paper-suite experiment states its paper claims as checks
// (DESIGN.md §3). A failed check is printed on stderr, naming the
// experiment, and makes nocsim exit 1, like a failed experiment.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"

	"nocs/internal/bench"
	"nocs/internal/faultinject"
	"nocs/internal/sim"
	"nocs/internal/snapshot"
	"nocs/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes results to stdout and
// diagnostics to stderr, and returns the exit status (2 for usage errors).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nocsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list       = fs.Bool("list", false, "list experiments and exit")
		exp        = fs.String("exp", "", "comma-separated experiment IDs (e.g. F1,T2,S1)")
		all        = fs.Bool("all", false, "run every paper-suite experiment")
		quick      = fs.Bool("quick", false, "reduced sample counts")
		seed       = fs.Uint64("seed", bench.DefaultConfig().Seed, "workload RNG seed")
		format     = fs.String("format", "table", "output format: table, csv or json")
		parallel   = fs.Int("parallel", 1, "run up to N experiments (and sweep points within them) concurrently, clamped to the usable CPU count; every run uses isolated engines and results merge in registry order, so output is identical at any setting")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the simulator to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile (after all runs) to this file")
		traceOut   = fs.String("trace", "", "write a Chrome trace-event JSON file (open at ui.perfetto.dev); forces -parallel 1")
		faults     = fs.String("faults", "", `fault-injection plan for fault-aware experiments (F2, F16): "default" arms the standard seeded plan, "" runs fault-free`)
		ckptEvery  = fs.Int64("checkpoint-every", 0, "serialize a machine checkpoint every N simulated cycles in checkpoint-aware experiments (E1); 0 disables")
		ckptFile   = fs.String("checkpoint", "nocs.ckpt", "checkpoint file -checkpoint-every overwrites (atomically) and -resume reads")
		resume     = fs.String("resume", "", "warm-start checkpoint-aware experiments (E1) from this checkpoint file; the run continues to its horizon and must reproduce the straight-through result")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	switch *format {
	case "table", "csv", "json":
	default:
		fmt.Fprintf(stderr, "unknown -format %q (want table, csv or json)\n", *format)
		return 2
	}

	// More workers than usable CPUs is pure overhead for this CPU-bound
	// simulator: the goroutines time-slice the same cores while the extra
	// in-flight experiments inflate the live heap and GC pressure. On a
	// single-CPU host, -parallel 8 measurably LOSES to serial (BENCH_1.json
	// recorded 2942 ms vs 2764 ms), so clamp rather than oversubscribe —
	// output is identical at any setting, only the wall time changes.
	requestedParallel := *parallel
	if max := runtime.GOMAXPROCS(0); *parallel > max {
		*parallel = max
	}

	if *list {
		for _, suite := range []string{bench.SuitePaper, bench.SuiteSystem} {
			for _, id := range bench.SuiteIDs(suite) {
				e, _ := bench.Get(id)
				fmt.Fprintf(stdout, "%-4s %-6s %s\n", id, suite, e.Title)
			}
		}
		return 0
	}

	var ids []string
	switch {
	case *all:
		ids = bench.IDs()
	case *exp != "":
		for _, id := range strings.Split(*exp, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	default:
		fs.Usage()
		return 2
	}

	cfg := bench.RunConfig{Seed: *seed, Quick: *quick, Parallel: *parallel}
	switch *faults {
	case "":
	case "default":
		plan := faultinject.Default()
		cfg.Faults = &plan
	default:
		fmt.Fprintf(stderr, "unknown -faults plan %q (want \"default\" or empty)\n", *faults)
		return 2
	}
	if *resume != "" {
		data, err := os.ReadFile(*resume)
		if err == nil {
			cfg.FromSnapshot, err = snapshot.Decode(data)
		}
		if err != nil {
			fmt.Fprintf(stderr, "resume: %v\n", err)
			return 1
		}
	}
	var checkpoints atomic.Int64
	if *ckptEvery > 0 {
		cfg.Checkpoint.Every = sim.Cycles(*ckptEvery)
		cfg.Checkpoint.Sink = func(at sim.Cycles, ckpt []byte) error {
			// Write-then-rename so a crash mid-write never truncates the
			// previous good checkpoint.
			tmp := *ckptFile + ".tmp"
			if err := os.WriteFile(tmp, ckpt, 0o644); err != nil {
				return err
			}
			if err := os.Rename(tmp, *ckptFile); err != nil {
				return err
			}
			checkpoints.Add(1)
			return nil
		}
	}
	if *traceOut != "" {
		cfg.Tracer = trace.New()
		if requestedParallel > 1 {
			fmt.Fprintln(stderr, "note: -trace runs experiments and sweep points one at a time (sharded machines keep their workers)")
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	failed := 0
	results := []*bench.Result{}
	for _, o := range bench.RunAll(ids, cfg, *parallel) {
		if o.Err != nil {
			fmt.Fprintf(stderr, "experiment %s failed: %v\n", o.ID, o.Err)
			failed++
			continue
		}
		for _, c := range o.Res.Checks {
			if !c.Holds {
				fmt.Fprintf(stderr, "experiment %s: check failed: %s: %s\n", o.ID, c.Name, c.Detail)
				failed++
			}
		}
		switch *format {
		case "csv":
			for i, t := range o.Res.Tables {
				fmt.Fprintf(stdout, "# %s table %d: %s\n%s\n", o.Res.ID, i+1, t.Title, t.CSV())
			}
		case "json":
			results = append(results, o.Res)
		default:
			fmt.Fprintln(stdout, o.Res)
		}
	}
	if *format == "json" {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintf(stderr, "json: %v\n", err)
			return 1
		}
	}
	if n := checkpoints.Load(); n > 0 {
		fmt.Fprintf(stderr, "wrote %d checkpoints to %s\n", n, *ckptFile)
	}

	if *traceOut != "" {
		if err := writeTrace(*traceOut, cfg.Tracer); err != nil {
			fmt.Fprintf(stderr, "trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "wrote %d trace events to %s\n", cfg.Tracer.Len(), *traceOut)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(stderr, "memprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "memprofile: %v\n", err)
			return 1
		}
	}

	if failed > 0 {
		return 1
	}
	return 0
}

func writeTrace(path string, tr *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
