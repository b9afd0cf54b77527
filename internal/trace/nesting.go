package trace

import (
	"fmt"
	"math"
	"sort"
)

// CheckNesting verifies the structural well-formedness of the recorded
// events, per track:
//
//   - every End matches an open Begin (LIFO) and does not precede it;
//   - all spans on a track — Begin/End pairs and Complete spans alike —
//     properly nest: two spans either don't overlap or one contains the
//     other. Partial overlap means two state machines fought over one
//     timeline, which is a tracer-wiring bug.
//
// A Begin still open when the trace ends is fine (the simulation stopped
// mid-span); it is treated as extending to infinity.
func (t *Tracer) CheckNesting() error {
	if t == nil {
		return nil
	}
	type span struct {
		start, end int64
		name       string
	}
	perTrack := make(map[TrackID][]span)
	stacks := make(map[TrackID][]span)
	for _, ev := range t.Events() {
		switch ev.Phase {
		case PhaseBegin:
			stacks[ev.Track] = append(stacks[ev.Track], span{start: ev.At, name: ev.Name})
		case PhaseEnd:
			st := stacks[ev.Track]
			if len(st) == 0 {
				return fmt.Errorf("trace: track %d: End at %d with no open Begin", ev.Track, ev.At)
			}
			s := st[len(st)-1]
			stacks[ev.Track] = st[:len(st)-1]
			if ev.At < s.start {
				return fmt.Errorf("trace: track %d: span %q ends at %d before its start %d",
					ev.Track, s.name, ev.At, s.start)
			}
			s.end = ev.At
			perTrack[ev.Track] = append(perTrack[ev.Track], s)
		case PhaseComplete:
			if ev.Dur < 0 {
				return fmt.Errorf("trace: track %d: span %q at %d has negative duration %d",
					ev.Track, ev.Name, ev.At, ev.Dur)
			}
			perTrack[ev.Track] = append(perTrack[ev.Track],
				span{start: ev.At, end: ev.At + ev.Dur, name: ev.Name})
		}
	}
	// Unclosed Begins extend to the end of time.
	for tk, st := range stacks {
		for _, s := range st {
			s.end = math.MaxInt64
			perTrack[tk] = append(perTrack[tk], s)
		}
	}
	// Deterministic track order for error reporting.
	tracks := make([]TrackID, 0, len(perTrack))
	for tk := range perTrack {
		tracks = append(tracks, tk)
	}
	sort.Slice(tracks, func(i, j int) bool { return tracks[i] < tracks[j] })
	for _, tk := range tracks {
		spans := perTrack[tk]
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].start != spans[j].start {
				return spans[i].start < spans[j].start
			}
			return spans[i].end > spans[j].end // outermost first
		})
		var open []span
		for _, s := range spans {
			for len(open) > 0 && open[len(open)-1].end <= s.start {
				open = open[:len(open)-1]
			}
			if len(open) > 0 && s.end > open[len(open)-1].end {
				o := open[len(open)-1]
				return fmt.Errorf("trace: track %d: span %q [%d,%d) partially overlaps %q [%d,%d)",
					tk, s.name, s.start, s.end, o.name, o.start, o.end)
			}
			open = append(open, s)
		}
	}
	return nil
}
