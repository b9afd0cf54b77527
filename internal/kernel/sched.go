package kernel

import (
	"container/heap"
	"fmt"

	"nocs/internal/hwthread"
	"nocs/internal/sim"
)

// Task is a unit of work for the nocs Scheduler.
type Task struct {
	// Demand is the task's execution demand in cycles.
	Demand sim.Cycles
	// Priority orders dispatch (higher first) and sets the hardware
	// priority of the worker thread while the task runs (≥1).
	Priority int
	// OnDone is called at completion time.
	OnDone func(at sim.Cycles)

	seq uint64 // FIFO tie-break
}

// taskHeap orders by priority desc, then submission order.
type taskHeap []Task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].Priority != h[j].Priority {
		return h[i].Priority > h[j].Priority
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)   { *h = append(*h, x.(Task)) }
func (h *taskHeap) Pop() any     { old := *h; n := len(old); t := old[n-1]; *h = old[:n-1]; return t }

// Scheduler is the paper's §4 OS scheduler: instead of multiplexing software
// threads onto hardware threads, it "enforce[s] software policies by
// starting and stopping hardware threads and setting their priorities". It
// is itself a hardware thread parked in mwait on its ready doorbell, so it
// reacts to new work at wakeup latency — §4's "the scheduler will run in
// much tighter loops" — rather than at the next timer tick.
//
// When tasks outnumber workers, the overflow queues in software by priority:
// the rare case the paper likens to "swapping memory pages to disk".
type Scheduler struct {
	k        *Nocs
	runner   *RequestRunner
	doorbell int64

	workers []hwthread.PTID
	free    []hwthread.PTID
	pending taskHeap
	seq     uint64

	dispatched uint64
	completed  uint64
	maxQueue   int
	schedCost  sim.Cycles
}

// NewScheduler builds a scheduler over the given worker hardware threads.
// doorbell is a free memory word used as the ready signal; quantum is the
// work-chunk granularity (see NewRequestRunner).
func NewScheduler(k *Nocs, workers []hwthread.PTID, doorbell int64, quantum sim.Cycles) (*Scheduler, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("kernel: scheduler needs at least one worker")
	}
	s := &Scheduler{
		k:         k,
		runner:    k.NewRequestRunner(quantum),
		doorbell:  doorbell,
		workers:   append([]hwthread.PTID(nil), workers...),
		free:      append([]hwthread.PTID(nil), workers...),
		schedCost: 60, // the §4 tight-loop decision cost
	}
	_, err := k.SpawnService("scheduler", func() []int64 { return []int64{doorbell} },
		func(t *hwthread.Context) sim.Cycles {
			if s.k.Core().ReadWord(doorbell) == 0 {
				return 0
			}
			s.k.Core().WriteWord(doorbell, 0)
			return s.dispatch()
		})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Submit enqueues a task and rings the scheduler's doorbell. Call from
// simulation events (arrival processes, completion callbacks).
func (s *Scheduler) Submit(t Task) {
	if t.Priority < 1 {
		t.Priority = 1
	}
	t.seq = s.seq
	s.seq++
	heap.Push(&s.pending, t)
	if len(s.pending) > s.maxQueue {
		s.maxQueue = len(s.pending)
	}
	// Ring the doorbell: the scheduler thread wakes through the monitor.
	s.k.Core().WriteWord(s.doorbell, 1)
}

// dispatch assigns queued tasks to free workers, highest priority first.
func (s *Scheduler) dispatch() sim.Cycles {
	var cost sim.Cycles
	for len(s.free) > 0 && s.pending.Len() > 0 {
		task := heap.Pop(&s.pending).(Task)
		w := s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
		cost += s.schedCost + s.k.Core().Costs().ThreadOp

		ctx := s.k.Core().Threads().Context(w)
		ctx.Priority = task.Priority
		onDone := task.OnDone
		if err := s.runner.Start(w, task.Demand, func(at sim.Cycles) {
			s.completed++
			s.free = append(s.free, w)
			if onDone != nil {
				onDone(at)
			}
			// A worker freed: more queued work may now be placeable.
			if s.pending.Len() > 0 {
				s.k.Core().WriteWord(s.doorbell, 1)
			}
		}); err != nil {
			// Worker unexpectedly busy: put everything back and stop.
			s.free = append(s.free, w)
			heap.Push(&s.pending, task)
			break
		}
		s.dispatched++
	}
	return cost
}

// Stats returns (dispatched, completed, peak queue depth).
func (s *Scheduler) Stats() (dispatched, completed uint64, maxQueue int) {
	return s.dispatched, s.completed, s.maxQueue
}
