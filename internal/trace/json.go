package trace

import (
	"bufio"
	"io"
	"strconv"
)

// Chrome trace-event JSON emission.
//
// The format (the "JSON Array / Trace Event" format consumed by Perfetto and
// chrome://tracing) is one object per event with fields ph/pid/tid/ts/name.
// Timestamps are microseconds; fractional values are allowed and preserved.
// Cycles convert at the paper's 3 GHz: 3000 cycles per microsecond, 3 cycles
// per nanosecond — integer arithmetic only, so the rendering of a timestamp
// is a pure function of the cycle count and the output is byte-stable.

const cyclesPerMicro = 3000

// appendTS renders a cycle timestamp as "<us>.<ns:3digits>". The magnitude
// arithmetic runs in uint64 so math.MinInt64 (whose int64 negation overflows
// back to itself) still renders as a well-formed number.
func appendTS(b []byte, cycles int64) []byte {
	u := uint64(cycles)
	if cycles < 0 {
		b = append(b, '-')
		u = -u
	}
	us := u / cyclesPerMicro
	ns := (u % cyclesPerMicro) / 3
	b = strconv.AppendUint(b, us, 10)
	b = append(b, '.', byte('0'+ns/100), byte('0'+ns/10%10), byte('0'+ns%10))
	return b
}

// appendString renders s as a JSON string. Trace names are short ASCII
// identifiers; anything that would need escaping is escaped, control bytes
// conservatively via \u00XX.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

// WriteJSON serializes the trace. The output is deterministic: metadata
// events in merged track order, then the events of t and of each fork in
// fork order, each buffer in emission order.
func (t *Tracer) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	buf := make([]byte, 0, 256)
	first := true
	writeEvent := func(b []byte) error {
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
		first = false
		_, err := bw.Write(b)
		return err
	}

	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"); err != nil {
		return err
	}

	if t != nil {
		v := t.view()
		// Metadata: name each process once (via its first track) and each
		// thread-track.
		seenPID := make(map[int]bool)
		for _, tr := range v.tracks {
			if !seenPID[tr.PID] {
				seenPID[tr.PID] = true
				buf = buf[:0]
				buf = append(buf, `{"ph":"M","name":"process_name","pid":`...)
				buf = strconv.AppendInt(buf, int64(tr.PID), 10)
				buf = append(buf, `,"tid":0,"args":{"name":`...)
				buf = appendString(buf, tr.Process)
				buf = append(buf, "}}"...)
				if err := writeEvent(buf); err != nil {
					return err
				}
			}
			buf = buf[:0]
			buf = append(buf, `{"ph":"M","name":"thread_name","pid":`...)
			buf = strconv.AppendInt(buf, int64(tr.PID), 10)
			buf = append(buf, `,"tid":`...)
			buf = strconv.AppendInt(buf, int64(tr.TID), 10)
			buf = append(buf, `,"args":{"name":`...)
			buf = appendString(buf, tr.Name)
			buf = append(buf, "}}"...)
			if err := writeEvent(buf); err != nil {
				return err
			}
		}

		for k, p := range v.parts {
			for i := range p.events {
				ev := v.event(k, i)
				tr := v.tracks[ev.Track-1]
				buf = buf[:0]
				buf = append(buf, `{"ph":"`...)
				buf = append(buf, phaseChar(ev.Phase))
				buf = append(buf, `","pid":`...)
				buf = strconv.AppendInt(buf, int64(tr.PID), 10)
				buf = append(buf, `,"tid":`...)
				buf = strconv.AppendInt(buf, int64(tr.TID), 10)
				buf = append(buf, `,"ts":`...)
				buf = appendTS(buf, ev.At)
				if ev.Name != "" || ev.Phase != PhaseEnd {
					buf = append(buf, `,"name":`...)
					buf = appendString(buf, ev.Name)
				}
				switch ev.Phase {
				case PhaseComplete:
					buf = append(buf, `,"dur":`...)
					buf = appendTS(buf, ev.Dur)
				case PhaseInstant:
					buf = append(buf, `,"s":"t"`...)
				case PhaseCounter:
					buf = append(buf, `,"args":{"value":`...)
					buf = strconv.AppendInt(buf, ev.Value, 10)
					buf = append(buf, "}}"...)
					if err := writeEvent(buf); err != nil {
						return err
					}
					continue
				case PhaseFlowStart, PhaseFlowEnd:
					buf = append(buf, `,"cat":"wakeup","id":`...)
					buf = strconv.AppendUint(buf, uint64(ev.Flow), 10)
					if ev.Phase == PhaseFlowEnd {
						buf = append(buf, `,"bp":"e"`...)
					}
				}
				if ev.Arg != "" {
					buf = append(buf, `,"args":{"detail":`...)
					buf = appendString(buf, ev.Arg)
					buf = append(buf, '}')
				}
				buf = append(buf, '}')
				if err := writeEvent(buf); err != nil {
					return err
				}
			}
		}
	}

	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

func phaseChar(p Phase) byte {
	switch p {
	case PhaseBegin:
		return 'B'
	case PhaseEnd:
		return 'E'
	case PhaseComplete:
		return 'X'
	case PhaseInstant:
		return 'i'
	case PhaseCounter:
		return 'C'
	case PhaseFlowStart:
		return 's'
	case PhaseFlowEnd:
		return 'f'
	}
	return '?'
}
