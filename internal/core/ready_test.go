package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"nocs/internal/asm"
	"nocs/internal/hwthread"
	"nocs/internal/isa"
	"nocs/internal/sim"
	"nocs/internal/snapshot"
)

// TestReadyQueueMatchesSortedSlice drives the ring through random inserts,
// head pops and removals at every position — across growth and wraparound —
// and requires it to hold exactly a sorted slice's contents after each step.
func TestReadyQueueMatchesSortedSlice(t *testing.T) {
	rng := sim.NewRNG(7)
	ctxs := make([]*hwthread.Context, 64)
	for i := range ctxs {
		ctxs[i] = &hwthread.Context{PTID: hwthread.PTID(i)}
	}
	var q readyQueue
	var ref []readyEntry
	seq := uint64(0)
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(4); {
		case op < 2 && len(ref) < len(ctxs):
			e := readyEntry{at: sim.Cycles(rng.Intn(50)), seq: seq, t: ctxs[len(ref)]}
			seq++
			i := q.insert(e)
			j, _ := slices.BinarySearchFunc(ref, e, func(a, b readyEntry) int {
				if readyLess(&a, &b) {
					return -1
				}
				if readyLess(&b, &a) {
					return 1
				}
				return 0
			})
			if i != j {
				t.Fatalf("step %d: insert at %d, want %d", step, i, j)
			}
			ref = slices.Insert(ref, j, e)
		case op == 2 && len(ref) > 0:
			if got := q.pop(); got != ref[0] {
				t.Fatalf("step %d: pop %+v, want %+v", step, got, ref[0])
			}
			ref = ref[1:]
		case len(ref) > 0:
			i := rng.Intn(len(ref))
			q.remove(i)
			ref = slices.Delete(ref, i, i+1)
		}
		if q.n != len(ref) {
			t.Fatalf("step %d: %d entries, want %d", step, q.n, len(ref))
		}
		for i := range ref {
			if *q.at(i) != ref[i] {
				t.Fatalf("step %d: entry %d is %+v, want %+v", step, i, *q.at(i), ref[i])
			}
		}
	}
}

// TestCancelQueuedIssueLeavesTombstone stops a thread whose issue waits
// behind the core's armed head: the engine heap must gain a tombstone at
// that issue's key (as if the issue had been an engine event and was
// cancelled), and the head must stay armed.
func TestCancelQueuedIssueLeavesTombstone(t *testing.T) {
	r := newRig(4, 1)
	prog := asm.MustAssemble("spin", "main:\nloop:\n\taddi r1, r1, 1\n\tjmp loop\n")
	for p := 0; p < 3; p++ {
		if err := r.c.BindProgram(hwthread.PTID(p), prog, "main"); err != nil {
			t.Fatal(err)
		}
		if err := r.c.BootStart(hwthread.PTID(p)); err != nil {
			t.Fatal(err)
		}
	}
	r.eng.RunUntil(500)
	if r.c.rq.n != 3 || r.c.rq.armed != 1 || r.eng.Pending() != 1 {
		t.Fatalf("after a run: %d queued, %d armed, %d engine events; want 3, 1, 1", r.c.rq.n, r.c.rq.armed, r.eng.Pending())
	}
	tail := *r.c.rq.at(2)
	r.c.StopThread(tail.t.PTID)
	if r.c.rq.n != 2 || r.c.rq.armed != 1 || r.eng.Pending() != 2 {
		t.Fatalf("after the stop: %d queued, %d armed, %d engine events; want 2, 1, 2", r.c.rq.n, r.c.rq.armed, r.eng.Pending())
	}
	claimed := map[uint64]bool{}
	for _, h := range r.c.LiveHandles() {
		_, seq, _ := r.eng.EventInfo(h)
		claimed[seq] = true
	}
	_, _, _, tombs, err := r.eng.SnapshotEvents(claimed)
	if err != nil {
		t.Fatal(err)
	}
	if len(tombs) != 1 || tombs[0].At != tail.at || tombs[0].Seq != tail.seq || tombs[0].Name != "exec" {
		t.Fatalf("tombstones %+v, want one exec tombstone at (%d, %d)", tombs, tail.at, tail.seq)
	}
	// Stopping the armed head cancels its engine event and arms the next.
	head := *r.c.rq.at(0)
	r.c.StopThread(head.t.PTID)
	if r.c.rq.n != 1 || r.c.rq.armed != 1 || !r.eng.Cancelled(head.h) {
		t.Fatalf("after stopping the head: %d queued, %d armed, head cancelled %v", r.c.rq.n, r.c.rq.armed, r.eng.Cancelled(head.h))
	}
}

// execRec is one hand-written pending-issue record: ptid, cycle, seq.
type execRec struct {
	ptid, at int64
	seq      uint64
}

// coreSection writes c's checkpoint section the way SnapshotState lays it
// out, with recs in place of the core's own pending-issue records. Every
// bound program is written as id 0.
func coreSection(c *Core, recs []execRec) *snapshot.R {
	b := snapshot.NewBuilder()
	w := b.Section("core")
	w.Len(c.threads.Len())
	for i := 0; i < c.threads.Len(); i++ {
		t := c.threads.Context(hwthread.PTID(i))
		pid := int64(-1)
		if t.Prog != nil {
			pid = 0
		}
		t.SnapshotState(w, pid)
	}
	w.Len(len(recs))
	for _, e := range recs {
		w.I64(e.ptid).I64(e.at).U64(e.seq)
	}
	w.I64s(nil).I64s(nil) // guests, halted
	w.Bool(false)         // no fatal fault
	w.U64(c.retired).U64(c.starts)
	c.pipe.SnapshotState(w)
	c.store.SnapshotState(w)
	c.hier.SnapshotState(w)
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		panic(err)
	}
	s, err := snapshot.Decode(buf.Bytes())
	if err != nil {
		panic(err)
	}
	r, err := s.Section("core")
	if err != nil {
		panic(err)
	}
	return r
}

// TestRunLimitCountsInlineDispatches runs two spinners that share one slot
// and nothing else: every issue after the first dispatches inline, so only
// a limit that counts inline dispatches lets Run return.
func TestRunLimitCountsInlineDispatches(t *testing.T) {
	prog := asm.MustAssemble("spin", "main:\nloop:\n\taddi r1, r1, 1\n\tjmp loop\n")
	r := newRig(2, 1)
	for p := 0; p < 2; p++ {
		if err := r.c.BindProgram(hwthread.PTID(p), prog, "main"); err != nil {
			t.Fatal(err)
		}
		if err := r.c.BootStart(hwthread.PTID(p)); err != nil {
			t.Fatal(err)
		}
	}
	if n := r.eng.Run(100); n != 100 || r.eng.Ran() != 100 {
		t.Fatalf("Run(100) ran %d events, Ran %d; want 100, 100", n, r.eng.Ran())
	}
	if n := r.eng.Run(50); n != 50 || r.eng.Ran() != 150 || r.c.rq.armed != 1 {
		t.Fatalf("Run(50) ran %d events, Ran %d, %d armed; want 50, 150, 1", n, r.eng.Ran(), r.c.rq.armed)
	}
	for p := 0; p < 2; p++ {
		if r.c.Threads().Context(hwthread.PTID(p)).Retired == 0 {
			t.Fatalf("ptid %d retired nothing", p)
		}
	}
}

// TestRestoreRejectsBadExecRecords restores hand-written core sections
// whose pending-issue records no live core could have written. Each must
// fail with ErrExecRecord — not panic, and not restore a thread that would
// issue twice per slot. The valid section's queued (unarmed) record must
// still hold its seq: an engine counter at or below it fails FinishRestore,
// as it would had the record been queued in the heap.
func TestRestoreRejectsBadExecRecords(t *testing.T) {
	prog := asm.MustAssemble("spin", "main:\nloop:\n\taddi r1, r1, 1\n\tjmp loop\n")
	src := newRig(4, 2)
	for p := 0; p < 3; p++ {
		if err := src.c.BindProgram(hwthread.PTID(p), prog, "main"); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < 2; p++ { // ptid 2 stays disabled
		if err := src.c.BootStart(hwthread.PTID(p)); err != nil {
			t.Fatal(err)
		}
	}
	const now = 1000
	src.eng.RunUntil(now)
	progOf := func(int64) (*isa.Program, error) { return prog, nil }

	for _, tc := range []struct {
		name string
		recs []execRec
		ok   bool
	}{
		{"valid", []execRec{{0, now + 3, 900}, {1, now + 4, 901}}, true},
		{"duplicate", []execRec{{0, now + 3, 900}, {0, now + 4, 901}}, false},
		{"out-of-order", []execRec{{1, now + 3, 900}, {0, now + 4, 901}}, false},
		{"not-runnable", []execRec{{0, now + 3, 900}, {2, now + 4, 901}}, false},
		{"before-clock", []execRec{{0, now - 1, 900}}, false},
		{"out-of-range", []execRec{{4, now + 3, 900}}, false},
		{"negative", []execRec{{-1, now + 3, 900}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dst := newRig(4, 2)
			dst.eng.BeginRestore(now)
			err := func() (err error) {
				defer func() {
					if p := recover(); p != nil {
						err = fmt.Errorf("panic: %v", p)
					}
				}()
				return dst.c.RestoreState(coreSection(src.c, tc.recs), progOf)
			}()
			if tc.ok {
				if err != nil {
					t.Fatal(err)
				}
				if dst.c.rq.n != 2 || dst.c.rq.armed != 1 || dst.eng.Pending() != 1 {
					t.Fatalf("restored %d queued, %d armed, %d engine events; want 2, 1, 1", dst.c.rq.n, dst.c.rq.armed, dst.eng.Pending())
				}
				if err := dst.eng.FinishRestore(901, 0); err == nil {
					t.Fatal("FinishRestore(901) accepted a counter that collides with the queued record's seq 901")
				}
				if err := dst.eng.FinishRestore(902, 0); err != nil {
					t.Fatal(err)
				}
				return
			}
			if !errors.Is(err, ErrExecRecord) {
				t.Fatalf("restore returned %v, want ErrExecRecord", err)
			}
		})
	}
}
