package diff

import (
	"fmt"
	"testing"

	"nocs/internal/asm"
	"nocs/internal/isa"
	"nocs/internal/progen"
	"nocs/internal/refmodel"
	"nocs/internal/trace"
)

// craftSpec hand-builds a differential spec: an assembled source plus the
// standard per-thread TDT/EDP register setup the harness expects. Unlike
// progen.Generate, every scheduling boundary is placed deliberately.
func craftSpec(t *testing.T, name, src string, threads, slots int, deadline int64) *progen.Spec {
	t.Helper()
	prog, err := asm.Assemble(name, src)
	if err != nil {
		t.Fatalf("%s: bad crafted assembly: %v\n%s", name, err, src)
	}
	s := &progen.Spec{
		Threads:  threads,
		Slots:    slots,
		Deadline: deadline,
		Source:   src,
		Prog:     prog,
	}
	for p := 0; p < threads; p++ {
		s.Boot = append(s.Boot, p)
		s.Regs = append(s.Regs,
			progen.RegInit{PTID: p, Reg: isa.TDT, Val: progen.TDTBase},
			progen.RegInit{PTID: p, Reg: isa.EDP, Val: progen.DescBase + progen.DescStride*int64(p)},
		)
		s.Mem = append(s.Mem,
			progen.MemInit{Addr: progen.TDTBase + 16*int64(p), Val: int64(p)},
			progen.MemInit{Addr: progen.TDTBase + 16*int64(p) + 8, Val: 0xF},
		)
	}
	return s
}

// waiterSrc is one waiter watching flag word 0 and one companion thread whose
// body is supplied by the caller — the shared skeleton of the boundary cases.
func waiterSrc(companion string) string {
	return fmt.Sprintf(`
main:
t0:
	movi r10, %d
	movi r11, %d
	addi r7, r11, 0
	monitor r7
	mwait
	ld r1, [r11+0]
	st [r10+0], r1
	halt

t1:
	movi r10, %d
	movi r11, %d
%s
`, progen.DataBase, progen.FlagBase, progen.DataBase, progen.FlagBase, companion)
}

// TestBatchBoundaries drives each scheduling-boundary class the batched
// execution loop must honor — monitor wake, RunUntil deadline (the quantum-
// expiry analogue), injected spurious wake, DMA completion — through crafted
// specs, and requires the engine to agree with the unbatched reference
// interpreter cycle-exactly (lastStarted/lastHalt timestamps, per-thread
// retired counts, wakeup counters, final registers and memory). Each spec
// runs twice: with the per-instruction OnExec hook (general interpreter,
// outer batching only) and without it (fastRun inner loop active), so both
// batched configurations are pinned against the same reference.
func TestBatchBoundaries(t *testing.T) {
	spin := func(label string, n int) string {
		return fmt.Sprintf("\tmovi r9, %d\n%s:\n\taddi r9, r9, -1\n\tbne r9, r8, %s\n", n, label, label)
	}

	// check guards against vacuous agreement: it asserts the intended
	// boundary event actually occurred in the engine run.
	cases := []struct {
		name  string
		spec  func(t *testing.T) *progen.Spec
		check func(t *testing.T, eng *outcome)
	}{
		{
			// A waker's store to a monitored flag must end the waiter's
			// blocked interval and the waker's own batch at the exact store
			// cycle, after the waker spent a deliberate spin warmup inside
			// one batch.
			name: "monitor-wake",
			spec: func(t *testing.T) *progen.Spec {
				src := waiterSrc(spin("t1_spin", 50) + "\tmovi r1, 7\n\tst [r11+0], r1\n\thalt\n")
				return craftSpec(t, "monitor-wake", src, 2, 2, 15000)
			},
			check: func(t *testing.T, eng *outcome) {
				if eng.threads[0].wakeups < 1 {
					t.Fatal("waiter was never woken — scenario did not exercise the wake boundary")
				}
				if eng.mem[progen.DataBase] != 7 {
					t.Fatalf("waiter did not observe the waker's store: data[0]=%d", eng.mem[progen.DataBase])
				}
			},
		},
		{
			// The RunUntil deadline lands mid-loop on both threads: the batch
			// must stop at the deadline with the same per-thread retired
			// counts as the cycle-by-cycle reference (uncontended: one thread
			// per slot).
			name: "deadline-mid-batch",
			spec: func(t *testing.T) *progen.Spec {
				src := `
main:
t0:
` + spin("t0_loop", 100000) + `	halt

t1:
` + spin("t1_loop", 100000) + `	halt
`
				return craftSpec(t, "deadline-mid-batch", src, 2, 2, 4321)
			},
			check: func(t *testing.T, eng *outcome) {
				for p := 0; p < 2; p++ {
					if eng.threads[p].state != 1 { // StRunnable: deadline cut the batch mid-loop
						t.Fatalf("thread %d not still runnable at deadline (state %d) — deadline missed the batch", p, eng.threads[p].state)
					}
				}
			},
		},
		{
			// Same, contended: one SMT slot shared by two spinners, so every
			// charged latency goes through the PS-slowdown path and the
			// deadline cuts a slowed-down batch.
			name: "deadline-contended",
			spec: func(t *testing.T) *progen.Spec {
				src := `
main:
t0:
` + spin("t0_loop", 100000) + `	halt

t1:
` + spin("t1_loop", 100000) + `	halt
`
				return craftSpec(t, "deadline-contended", src, 2, 1, 4321)
			},
			check: func(t *testing.T, eng *outcome) {
				for p := 0; p < 2; p++ {
					if eng.threads[p].state != 1 {
						t.Fatalf("thread %d not still runnable at deadline (state %d)", p, eng.threads[p].state)
					}
				}
			},
		},
		{
			// A lone spinner: nothing else is ever queued, so only the
			// RunUntil deadline can end its batch.
			name: "deadline-solo",
			spec: func(t *testing.T) *progen.Spec {
				src := "main:\nt0:\n" + spin("t0_loop", 100000) + "\thalt\n"
				return craftSpec(t, "deadline-solo", src, 1, 2, 4321)
			},
			check: func(t *testing.T, eng *outcome) {
				if eng.threads[0].state != 1 {
					t.Fatalf("spinner not still runnable at deadline (state %d)", eng.threads[0].state)
				}
			},
		},
		{
			// Oversubscribed: four spinners share one SMT slot, so the core
			// always has issues queued behind the one it is running, and
			// every charged latency is slowed down. Thread 0 stops thread 2
			// while thread 2 waits in that queue.
			name: "oversubscribed",
			spec: func(t *testing.T) *progen.Spec {
				src := "main:\nt0:\n" + spin("t0_warm", 40) + "\tmovi r12, 2\n\tstop r12\n" + spin("t0_loop", 100000) + "\thalt\n"
				for p := 1; p < 4; p++ {
					src += fmt.Sprintf("\nt%d:\n", p) + spin(fmt.Sprintf("t%d_loop", p), 100000) + "\thalt\n"
				}
				return craftSpec(t, "oversubscribed", src, 4, 1, 4321)
			},
			check: func(t *testing.T, eng *outcome) {
				for p, th := range eng.threads {
					if th.retired == 0 {
						t.Fatalf("thread %d retired nothing", p)
					}
					want := uint8(refmodel.StRunnable)
					if p == 2 {
						want = refmodel.StDisabled
					}
					if th.state != want {
						t.Fatalf("thread %d in state %d at the deadline, want %d", p, th.state, want)
					}
				}
				if eng.threads[2].stops != 1 {
					t.Fatalf("thread 2 stopped %d times, want 1 — the stop did not land", eng.threads[2].stops)
				}
			},
		},
		{
			// An injected spurious wake at a fixed cycle must release the
			// mwait at exactly that cycle; no program store ever touches the
			// watched flag.
			name: "spurious-wake",
			spec: func(t *testing.T) *progen.Spec {
				src := waiterSrc(spin("t1_spin", 200) + "\thalt\n")
				s := craftSpec(t, "spurious-wake", src, 2, 2, 15000)
				s.Faults = []progen.FaultEv{{At: 777, PTID: 0}}
				return s
			},
			check: func(t *testing.T, eng *outcome) {
				if eng.threads[0].wakeups < 1 {
					t.Fatal("spurious wake never landed — waiter still blocked")
				}
			},
		},
		{
			// A DMA completion (device write into the watched flag window)
			// must wake the waiter at the DMA cycle while the companion is
			// mid-batch in its spin loop.
			name: "dma-completion",
			spec: func(t *testing.T) *progen.Spec {
				src := waiterSrc(spin("t1_spin", 2000) + "\thalt\n")
				s := craftSpec(t, "dma-completion", src, 2, 2, 15000)
				s.DMA = []progen.DMA{{At: 1234, Addr: progen.FlagBase, Val: 42}}
				return s
			},
			check: func(t *testing.T, eng *outcome) {
				if eng.threads[0].wakeups < 1 {
					t.Fatal("DMA write never woke the waiter")
				}
				if eng.mem[progen.DataBase] != 42 {
					t.Fatalf("waiter did not observe the DMA value: data[0]=%d", eng.mem[progen.DataBase])
				}
			},
		},
		{
			// Repeated block/wake cycles: the waiter re-arms its monitor
			// three times, the waker fires three stores separated by spin
			// gaps — every wake boundary and every re-block boundary must
			// line up.
			name: "repeated-wake",
			spec: func(t *testing.T) *progen.Spec {
				src := fmt.Sprintf(`
main:
t0:
	movi r10, %d
	movi r11, %d
	movi r6, 3
t0_loop:
	addi r7, r11, 0
	monitor r7
	mwait
	ld r1, [r11+0]
	st [r10+0], r1
	addi r6, r6, -1
	bne r6, r8, t0_loop
	halt

t1:
	movi r10, %d
	movi r11, %d
	movi r6, 3
t1_outer:
%s	movi r1, 9
	st [r11+0], r1
	addi r6, r6, -1
	bne r6, r8, t1_outer
	halt
`, progen.DataBase, progen.FlagBase, progen.DataBase, progen.FlagBase,
					spin("t1_spin", 300))
				return craftSpec(t, "repeated-wake", src, 2, 2, 15000)
			},
			check: func(t *testing.T, eng *outcome) {
				if eng.threads[0].wakeups < 3 {
					t.Fatalf("waiter woke only %d times, want 3 block/wake boundaries", eng.threads[0].wakeups)
				}
			},
		},
	}

	causes, ran := make(map[string]int), 0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ran++
			s := tc.spec(t)
			for _, mode := range []struct {
				name      string
				invariant bool
				tr        *trace.Tracer
			}{
				{"hooked", true, nil}, {"fastrun", false, nil},
				{"hooked-traced", true, trace.New()}, {"fastrun-traced", false, trace.New()},
			} {
				eng, cfg, err := runEngineHook(s, mode.tr, mode.invariant)
				if err != nil {
					t.Fatalf("%s engine: %v", mode.name, err)
				}
				if mode.tr != nil {
					checkBatchSpans(t, mode.tr, eng, causes)
				}
				ref, err := runRef(s, cfg)
				if err != nil {
					t.Fatalf("%s ref: %v", mode.name, err)
				}
				if divs := compare(s, eng, ref); len(divs) > 0 {
					for _, d := range divs {
						t.Logf("  %s", d)
					}
					t.Fatalf("%s: batch boundary diverged from unbatched reference", mode.name)
				}
				if tc.check != nil {
					tc.check(t, eng)
				}
			}
		})
	}
	if ran < len(cases) {
		return // a -run filter picked some cases; they need not end every way
	}
	for _, cause := range []string{"horizon", "deadline", "block"} {
		if causes[cause] == 0 {
			t.Errorf("no batch ended at a %s boundary: %v", cause, causes)
		}
	}
}

// checkBatchSpans requires the traced run's "batch" spans to account for
// every retired instruction — per ptid, the spans' instruction counts sum to
// the thread's Retired — and each to name one of the boundaries that end a
// batch. It tallies the causes seen into causes.
func checkBatchSpans(t *testing.T, tr *trace.Tracer, eng *outcome, causes map[string]int) {
	t.Helper()
	if err := tr.CheckNesting(); err != nil {
		t.Fatal(err)
	}
	sums := make([]uint64, len(eng.threads))
	for _, ev := range tr.Events() {
		if ev.Name != "batch" {
			continue
		}
		tk, _ := tr.TrackInfo(ev.Track)
		var p int
		var n uint64
		var cause string
		if _, err := fmt.Sscanf(tk.Name, "ptid%d", &p); err != nil || p < 0 || p >= len(sums) {
			t.Fatalf("batch span on track %q", tk.Name)
		}
		if _, err := fmt.Sscanf(ev.Arg, "n=%d end=%s", &n, &cause); err != nil {
			t.Fatalf("batch span arg %q: %v", ev.Arg, err)
		}
		switch cause {
		case "horizon", "deadline", "block":
			causes[cause]++
		default:
			t.Fatalf("batch span ended by %q", cause)
		}
		sums[p] += n
	}
	for p, th := range eng.threads {
		if sums[p] != th.retired {
			t.Errorf("ptid %d: batch spans count %d instructions, thread retired %d", p, sums[p], th.retired)
		}
	}
}

// TestNegativeAddressesAgree: loads and stores below address 0 charge the
// same cold and warm cache latencies in the engine as in the reference.
// -128, -1 and 0 are three lines, so each first touch is cold; a line index
// truncated toward zero would put -1 and 0 on one line and shift the halt
// cycle (and, in the engine, index a negative cache set at -128).
func TestNegativeAddressesAgree(t *testing.T) {
	src := "main:\nt0:\n"
	for _, addr := range []int64{-128, -1, 0} {
		src += fmt.Sprintf("\tmovi r2, %d\n\tld r1, [r2+0]\n\tst [r2+0], r1\n", addr)
	}
	s := craftSpec(t, "negative-addresses", src+"\thalt\n", 1, 2, 15000)
	eng, cfg, err := runEngine(s)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := runRef(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range compare(s, eng, ref) {
		t.Error(d)
	}
	if eng.fatal || eng.threads[0].lastHalt == 0 {
		t.Fatalf("thread did not halt cleanly: fatal=%v lastHalt=%d", eng.fatal, eng.threads[0].lastHalt)
	}
}
