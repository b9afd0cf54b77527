package core

import (
	"fmt"
	"strings"

	"nocs/internal/hwthread"
	"nocs/internal/isa"
	"nocs/internal/sim"
)

// TraceEntry records one issued instruction.
type TraceEntry struct {
	At    sim.Cycles
	PTID  hwthread.PTID
	PC    int64
	Instr isa.Instr
}

// String renders one trace line.
func (e TraceEntry) String() string {
	return fmt.Sprintf("%8d  ptid %-3d pc %-4d  %s", int64(e.At), e.PTID, e.PC, e.Instr)
}

// TraceBuffer collects a bounded execution trace through the core's OnExec
// hook. Zero Max keeps everything (use bounded traces for long runs).
type TraceBuffer struct {
	Max     int
	Entries []TraceEntry
	dropped uint64
}

// Hook returns the callback to install as Core.OnExec.
func (tb *TraceBuffer) Hook() func(p hwthread.PTID, pc int64, in isa.Instr, at sim.Cycles) {
	return func(p hwthread.PTID, pc int64, in isa.Instr, at sim.Cycles) {
		if tb.Max > 0 && len(tb.Entries) >= tb.Max {
			tb.dropped++
			return
		}
		tb.Entries = append(tb.Entries, TraceEntry{At: at, PTID: p, PC: pc, Instr: in})
	}
}

// String renders the whole trace.
func (tb *TraceBuffer) String() string {
	var b strings.Builder
	for _, e := range tb.Entries {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	if tb.dropped > 0 {
		fmt.Fprintf(&b, "... %d entries dropped (buffer full)\n", tb.dropped)
	}
	return b.String()
}
