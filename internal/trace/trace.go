// Package trace is the simulator's observability layer: a cycle-accurate
// event recorder that the hot layers (sim, pipeline, core, monitor, irq,
// device) emit into, and that serializes to Chrome trace-event JSON loadable
// in Perfetto (ui.perfetto.dev).
//
// Two properties are load-bearing:
//
//   - Zero overhead when disabled. Every component holds a *Tracer that is
//     nil when tracing is off, and every method is safe to call on a nil
//     receiver: the body is a single pointer compare and return. No
//     interfaces, no variadics, no closures — nothing that could box or
//     allocate on the per-instruction and per-event hot paths. The PR 1
//     zero-allocation guard tests run with a nil tracer and still demand
//     0 allocs/op.
//
//   - Determinism. Tracks are identified by small integer IDs handed out in
//     registration order, events are buffered in emission order, and the
//     JSON writer iterates slices only (never maps), so the same seed
//     produces a byte-identical trace.
//
// A Tracer is not safe for concurrent use: like a sim.Engine it belongs to
// one single-threaded event loop. A sharded machine therefore gives each
// shard its own buffer, forked from the caller's tracer at construction
// (Fork), so shards running on different workers never share one. Reads
// (Events, Tracks, WriteJSON, CheckNesting) merge the root and its forks in
// fork order with track, process and flow IDs renumbered, so the output is
// the same at any worker count.
//
// Timestamps are raw cycle counts (int64, not sim.Cycles) so this package
// stays a leaf that every layer — including sim itself — can import.
package trace

// TrackID names one horizontal timeline (a ptid, an IRQ vector, a device's
// DMA port, a counter row). The zero TrackID is invalid; events sent to it
// are dropped, which lets callers keep an unregistered track field at its
// zero value.
type TrackID int32

// FlowID links a wakeup chain across tracks (monitor fire → thread resume,
// IRQ raise → handler dispatch). The zero FlowID means "no flow".
type FlowID uint64

// Phase classifies an event, mirroring the Chrome trace-event phases.
type Phase uint8

const (
	// PhaseBegin opens a span on a track (Chrome "B").
	PhaseBegin Phase = iota
	// PhaseEnd closes the innermost open span (Chrome "E").
	PhaseEnd
	// PhaseComplete is a span with a known duration, emitted retrospectively
	// for cost-charged transitions like syscalls and IRQ deliveries ("X").
	PhaseComplete
	// PhaseInstant is a point event ("i").
	PhaseInstant
	// PhaseCounter samples a named counter value ("C").
	PhaseCounter
	// PhaseFlowStart begins a flow arrow ("s").
	PhaseFlowStart
	// PhaseFlowEnd terminates a flow arrow ("f").
	PhaseFlowEnd
)

// Event is one recorded trace event. Dur is meaningful for PhaseComplete,
// Value for PhaseCounter, Flow for the flow phases; Arg is an optional
// free-form detail string.
type Event struct {
	At    int64
	Dur   int64
	Value int64
	Flow  FlowID
	Track TrackID
	Phase Phase
	Name  string
	Arg   string
}

// Track describes one registered timeline. Tracks belonging to the same
// Process string share a Chrome pid and group together in Perfetto.
type Track struct {
	Process string
	Name    string
	PID     int
	TID     int
}

// Tracer buffers events for one simulation run. Construct with New. A nil
// *Tracer is the disabled tracer: every method is a no-op (or returns zero)
// on it.
type Tracer struct {
	events   []Event
	tracks   []Track // PID/TID are assigned when the trace is read
	nextFlow uint64
	stash    FlowID
	forks    []*Tracer
}

// New returns an empty, enabled tracer.
func New() *Tracer { return &Tracer{} }

// Fork returns a child tracer with its own events, tracks, flow counter and
// flow stash, which t's reads include after t's own events and those of
// earlier forks. Give each independently scheduled event loop its own fork;
// fork in a deterministic order. Returns nil on a nil tracer.
func (t *Tracer) Fork() *Tracer {
	if t == nil {
		return nil
	}
	c := New()
	t.forks = append(t.forks, c)
	return c
}

// Enabled reports whether the tracer records events (false for nil).
func (t *Tracer) Enabled() bool { return t != nil }

// NewTrack registers a timeline under the given process group and returns its
// ID, which is local to t. Process pids and per-process tids are assigned in
// registration order across the root and its forks, so construction-order
// determinism carries into the output. Returns 0 on a nil tracer.
func (t *Tracer) NewTrack(process, name string) TrackID {
	if t == nil {
		return 0
	}
	t.tracks = append(t.tracks, Track{Process: process, Name: name})
	return TrackID(len(t.tracks)) // 1-based; 0 stays invalid
}

// emit appends ev if both the tracer and the track are live.
func (t *Tracer) emit(tk TrackID, ev Event) {
	if t == nil || tk == 0 {
		return
	}
	ev.Track = tk
	t.events = append(t.events, ev)
}

// Begin opens a span on tk at the given cycle.
func (t *Tracer) Begin(tk TrackID, name string, at int64) {
	t.emit(tk, Event{Phase: PhaseBegin, Name: name, At: at})
}

// BeginArg opens a span carrying a detail argument.
func (t *Tracer) BeginArg(tk TrackID, name, arg string, at int64) {
	t.emit(tk, Event{Phase: PhaseBegin, Name: name, Arg: arg, At: at})
}

// End closes the innermost open span on tk.
func (t *Tracer) End(tk TrackID, at int64) {
	t.emit(tk, Event{Phase: PhaseEnd, At: at})
}

// Complete records a span of known duration starting at the given cycle.
func (t *Tracer) Complete(tk TrackID, name string, at, dur int64) {
	t.emit(tk, Event{Phase: PhaseComplete, Name: name, At: at, Dur: dur})
}

// CompleteArg records a known-duration span with a detail argument.
func (t *Tracer) CompleteArg(tk TrackID, name, arg string, at, dur int64) {
	t.emit(tk, Event{Phase: PhaseComplete, Name: name, Arg: arg, At: at, Dur: dur})
}

// Instant records a point event.
func (t *Tracer) Instant(tk TrackID, name string, at int64) {
	t.emit(tk, Event{Phase: PhaseInstant, Name: name, At: at})
}

// InstantArg records a point event with a detail argument.
func (t *Tracer) InstantArg(tk TrackID, name, arg string, at int64) {
	t.emit(tk, Event{Phase: PhaseInstant, Name: name, Arg: arg, At: at})
}

// Count samples a counter value on tk.
func (t *Tracer) Count(tk TrackID, name string, at, value int64) {
	t.emit(tk, Event{Phase: PhaseCounter, Name: name, At: at, Value: value})
}

// NewFlow allocates a fresh flow ID (0 on a nil tracer).
func (t *Tracer) NewFlow() FlowID {
	if t == nil {
		return 0
	}
	t.nextFlow++
	return FlowID(t.nextFlow)
}

// FlowStart anchors the start of flow f on tk.
func (t *Tracer) FlowStart(tk TrackID, name string, at int64, f FlowID) {
	if f == 0 {
		return
	}
	t.emit(tk, Event{Phase: PhaseFlowStart, Name: name, At: at, Flow: f})
}

// FlowEnd anchors the end of flow f on tk.
func (t *Tracer) FlowEnd(tk TrackID, name string, at int64, f FlowID) {
	if f == 0 {
		return
	}
	t.emit(tk, Event{Phase: PhaseFlowEnd, Name: name, At: at, Flow: f})
}

// StashFlow parks a flow ID for a synchronous handoff: the monitor engine
// stashes the wakeup's flow immediately before delivering MonitorWake, and
// the core consumes it with TakeFlow inside the (synchronous) wake path.
// Only one flow can be in flight; stashing replaces any previous value.
func (t *Tracer) StashFlow(f FlowID) {
	if t == nil {
		return
	}
	t.stash = f
}

// TakeFlow returns and clears the stashed flow ID (0 if none or nil tracer).
func (t *Tracer) TakeFlow() FlowID {
	if t == nil {
		return 0
	}
	f := t.stash
	t.stash = 0
	return f
}

// view is the merged read side of a tracer and its forks: the parts in
// fork order, every track with its pid and tid, and the offsets that turn
// each part's local track and flow IDs into merged ones.
type view struct {
	parts    []*Tracer
	tracks   []Track
	trackOff []TrackID
	flowOff  []FlowID
}

func (t *Tracer) view() *view {
	v := &view{}
	var collect func(p *Tracer)
	collect = func(p *Tracer) {
		v.parts = append(v.parts, p)
		for _, f := range p.forks {
			collect(f)
		}
	}
	collect(t)
	pids := make(map[string]int) // process name → pid, in first-use order
	tids := make(map[int]int)    // pid → tracks registered so far
	var flows FlowID
	for _, p := range v.parts {
		v.trackOff = append(v.trackOff, TrackID(len(v.tracks)))
		v.flowOff = append(v.flowOff, flows)
		flows += FlowID(p.nextFlow)
		for _, tk := range p.tracks {
			pid, ok := pids[tk.Process]
			if !ok {
				pid = len(pids) + 1
				pids[tk.Process] = pid
			}
			tids[pid]++
			tk.PID, tk.TID = pid, tids[pid]
			v.tracks = append(v.tracks, tk)
		}
	}
	return v
}

// event returns event i of part k with merged track and flow IDs.
func (v *view) event(k, i int) Event {
	ev := v.parts[k].events[i]
	ev.Track += v.trackOff[k]
	if ev.Flow != 0 {
		ev.Flow += v.flowOff[k]
	}
	return ev
}

// Events returns the recorded events of t and then of each fork, in fork
// order, with merged track and flow IDs. Callers must not mutate the slice.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	if len(t.forks) == 0 {
		return t.events
	}
	v := t.view()
	out := make([]Event, 0, t.Len())
	for k, p := range v.parts {
		for i := range p.events {
			out = append(out, v.event(k, i))
		}
	}
	return out
}

// Tracks returns the registered tracks in merged order; index i holds
// TrackID i+1 as Events reports it.
func (t *Tracer) Tracks() []Track {
	if t == nil {
		return nil
	}
	return t.view().tracks
}

// TrackInfo resolves a merged TrackID (false for 0, out-of-range, or nil
// tracer).
func (t *Tracer) TrackInfo(id TrackID) (Track, bool) {
	tracks := t.Tracks()
	if id <= 0 || int(id) > len(tracks) {
		return Track{}, false
	}
	return tracks[id-1], true
}

// Len returns the number of recorded events, forks included.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := len(t.events)
	for _, f := range t.forks {
		n += f.Len()
	}
	return n
}
