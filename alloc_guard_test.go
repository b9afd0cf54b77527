package nocs_test

import (
	"testing"

	"nocs/internal/asm"
	"nocs/internal/hwthread"
	"nocs/internal/machine"
	"nocs/internal/sim"
)

// TestBatchedExecZeroAlloc pins the tentpole zero-alloc property: with
// tracing and fault injection disabled, steady-state batched instruction
// execution performs no heap allocations. A hardware thread spins in an
// infinite ALU loop and the engine is advanced in fixed RunUntil windows;
// after one warmup window (event-heap and freelist growth), each further
// window must allocate nothing — the batch loop runs on predecoded
// instructions, the exec event recycles through the engine's slot freelist,
// and the pipeline charges latency without touching the heap.
func TestBatchedExecZeroAlloc(t *testing.T) {
	prog := asm.MustAssemble("spin", `
main:
	movi r1, 0
loop:
	addi r1, r1, 1
	jmp loop
`)
	m := machine.New()
	if err := m.Core(0).BindProgram(0, prog, "main"); err != nil {
		t.Fatal(err)
	}
	if err := m.Core(0).BootStart(0); err != nil {
		t.Fatal(err)
	}
	const window = 10_000
	deadline := sim.Cycles(window)
	m.RunUntil(deadline) // warmup: grow heap, freelist, decode cache

	allocs := testing.AllocsPerRun(50, func() {
		deadline += window
		m.RunUntil(deadline)
	})
	if allocs != 0 {
		t.Fatalf("steady-state batched execution allocates: %.1f allocs per %d-cycle window, want 0", allocs, window)
	}
	if got := m.Core(0).Retired(); got == 0 {
		t.Fatal("no instructions retired — guard measured nothing")
	}
}

// TestContendedExecZeroAlloc repeats the guard with more runnable threads
// than SMT slots, so the PS-slowdown (ChargedLatency float path) and the
// dense pipeline index are on the measured path too.
func TestContendedExecZeroAlloc(t *testing.T) {
	prog := asm.MustAssemble("spin", `
main:
	movi r1, 0
loop:
	addi r1, r1, 1
	jmp loop
`)
	m := machine.New(machine.WithSMTSlots(2), machine.WithThreads(4))
	for ptid := hwthread.PTID(0); ptid < 4; ptid++ {
		if err := m.Core(0).BindProgram(ptid, prog, "main"); err != nil {
			t.Fatal(err)
		}
		if err := m.Core(0).BootStart(ptid); err != nil {
			t.Fatal(err)
		}
	}
	const window = 10_000
	deadline := sim.Cycles(window)
	m.RunUntil(deadline)

	allocs := testing.AllocsPerRun(50, func() {
		deadline += window
		m.RunUntil(deadline)
	})
	if allocs != 0 {
		t.Fatalf("contended steady-state execution allocates: %.1f allocs per window, want 0", allocs)
	}
}

// TestRemoteWriteZeroAlloc pins the remote-write path at zero allocations
// in the steady state: a write between two cores of one shard (queued on
// its engine) and a write between shards (staged, delivered at a window
// barrier, then queued) each carry their address and value as a value and
// run as a pooled event body, so after one warmup write neither touches the
// heap.
func TestRemoteWriteZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{{"same-shard", 1}, {"cross-shard", 2}} {
		m := machine.New(machine.WithCores(2), machine.WithShards(tc.shards))
		to := m.ShardOfCore(1)
		const addr = 0x9000
		var v int64
		write := func() {
			v++
			m.RemoteWrite(0, to, addr, v, 0)
			m.RunUntil(m.Now() + 2*m.Lookahead())
		}
		write() // warmup: grow the pool, outbox, in-flight set and memory
		if allocs := testing.AllocsPerRun(100, write); allocs != 0 {
			t.Errorf("%s: a steady-state remote write allocates %.1f times, want 0", tc.name, allocs)
		}
		if got := m.MemOf(to).Read(addr); got != v {
			t.Errorf("%s: landing word %d, want %d", tc.name, got, v)
		}
	}
}
