package kernel

import (
	"testing"

	"nocs/internal/hwthread"
	"nocs/internal/machine"
	"nocs/internal/sim"
)

func schedRig(t *testing.T, workers int) (*machine.Machine, *Scheduler) {
	t.Helper()
	m := machine.New(machine.WithThreads(64), machine.WithSMTSlots(2))
	k := NewNocs(m.Core(0))
	ws := make([]hwthread.PTID, workers)
	for i := range ws {
		ws[i] = hwthread.PTID(i)
	}
	s, err := NewScheduler(k, ws, 0x700000, 200)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(0) // park the scheduler
	return m, s
}

func TestSchedulerValidation(t *testing.T) {
	m := machine.New()
	k := NewNocs(m.Core(0))
	if _, err := NewScheduler(k, nil, 0x700000, 200); err == nil {
		t.Fatal("empty worker set accepted")
	}
}

func TestSchedulerRunsTasks(t *testing.T) {
	m, s := schedRig(t, 2)
	done := 0
	for i := 0; i < 5; i++ {
		s.Submit(Task{Demand: 1000, OnDone: func(at sim.Cycles) { done++ }})
	}
	m.Run(0)
	if done != 5 {
		t.Fatalf("completed %d of 5", done)
	}
	d, c, maxQ := s.Stats()
	if d != 5 || c != 5 {
		t.Fatalf("stats %d/%d", d, c)
	}
	// 5 tasks on 2 workers: at least 3 had to queue.
	if maxQ < 3 {
		t.Fatalf("peak queue %d, want >= 3", maxQ)
	}
	if s.pending.Len() != 0 || len(s.free) != 2 {
		t.Fatal("scheduler not drained")
	}
}

func TestSchedulerPriorityOrder(t *testing.T) {
	m, s := schedRig(t, 1)
	var order []int
	mk := func(id, prio int) Task {
		return Task{Demand: 500, Priority: prio,
			OnDone: func(at sim.Cycles) { order = append(order, id) }}
	}
	// All four are queued before the engine runs: dispatch is pure priority
	// order, FIFO within a priority level.
	s.Submit(mk(0, 1))
	s.Submit(mk(1, 1))
	s.Submit(mk(2, 9))
	s.Submit(mk(3, 5))
	m.Run(0)
	if len(order) != 4 {
		t.Fatalf("completed %d", len(order))
	}
	want := []int{2, 3, 0, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestSchedulerSetsWorkerPriority(t *testing.T) {
	m, s := schedRig(t, 1)
	saw := 0
	s.Submit(Task{Demand: 300, Priority: 7, OnDone: func(at sim.Cycles) {
		saw = m.Core(0).Threads().Context(0).Priority
	}})
	m.Run(0)
	if saw != 7 {
		t.Fatalf("worker priority %d, want 7", saw)
	}
}

func TestSchedulerReactionIsWakeupFast(t *testing.T) {
	// The §4 "tighter loops" claim: dispatch happens at monitor-wakeup
	// latency after Submit, not at some timer tick.
	m, s := schedRig(t, 1)
	var doneAt sim.Cycles
	submitAt := m.Now()
	s.Submit(Task{Demand: 100, OnDone: func(at sim.Cycles) { doneAt = at }})
	m.Run(0)
	latency := doneAt - submitAt - 100 // minus the demand itself
	// Wakeup + dispatch + worker start: well under a thousand cycles.
	if latency > 1000 {
		t.Fatalf("scheduler reaction %d cycles, want < 1000", latency)
	}
}

func TestSchedulerFIFOWithinPriority(t *testing.T) {
	m, s := schedRig(t, 1)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		s.Submit(Task{Demand: 200, Priority: 3,
			OnDone: func(at sim.Cycles) { order = append(order, i) }})
	}
	m.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestSchedulerManyTasksFewWorkers(t *testing.T) {
	m, s := schedRig(t, 4)
	done := 0
	for i := 0; i < 100; i++ {
		s.Submit(Task{Demand: 300, OnDone: func(at sim.Cycles) { done++ }})
	}
	m.Run(0)
	if done != 100 {
		t.Fatalf("completed %d of 100", done)
	}
	if m.Fatal() != nil {
		t.Fatal(m.Fatal())
	}
}
