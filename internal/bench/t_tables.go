package bench

import (
	"fmt"

	"nocs/internal/hwthread"
	"nocs/internal/isa"
	"nocs/internal/mem"
	"nocs/internal/metrics"
	"nocs/internal/statestore"
)

func init() {
	Register(&Experiment{
		ID:    "T1",
		Title: "Thread Descriptor Table semantics (paper Table 1)",
		Claim: "the 4 permission bits allow start / stop / modify-some / modify-most, with non-hierarchical privilege",
		Run:   runT1,
	})
	Register(&Experiment{
		ID:    "T2",
		Title: "Thread-state storage capacity (§4 arithmetic)",
		Claim: "a 64KB register file stores 83–240 thread contexts; 100 cores cost 6.4MB; L2/L3 slices add tens to hundreds more",
		Run:   runT2,
	})
}

// runT1 reproduces Table 1 exactly and probes each row's effective rights
// through the real permission machinery.
func runT1(cfg RunConfig) (*Result, error) {
	m := mem.NewMemory()
	mgr := hwthread.NewManager(m, 0x20)
	caller := mgr.Context(2)
	caller.Regs.TDT = 0x8000

	rows := []struct {
		vtid hwthread.VTID
		ptid hwthread.PTID
		perm hwthread.Perm
	}{
		{0x0, 0x01, 0b1000},
		{0x1, 0x00, 0b0000},
		{0x2, 0x10, 0b1111},
		{0x3, 0x11, 0b1110},
	}
	for _, r := range rows {
		hwthread.WriteTDTEntry(m, caller.Regs.TDT, r.vtid, hwthread.Entry{PTID: r.ptid, Perm: r.perm})
	}

	// probe reports which of start, stop, modify-some and modify-most the
	// caller may apply to vtid, in permission-bit order.
	probe := func(vtid hwthread.VTID) [4]bool {
		_, fs := mgr.Start(caller, vtid)
		_, fp := mgr.Stop(caller, vtid)
		fsome := mgr.Rpush(caller, vtid, isa.R1, 0)
		fmost := mgr.Rpush(caller, vtid, isa.PC, 0)
		return [4]bool{fs == nil, fp == nil, fsome == nil, fmost == nil}
	}
	yn := func(ok bool) string {
		if ok {
			return "yes"
		}
		return "no"
	}
	bits := []hwthread.Perm{hwthread.PermStart, hwthread.PermStop, hwthread.PermModifySome, hwthread.PermModifyMost}

	t := metrics.NewTable("Table 1 reproduction: effective rights per TDT row",
		"vtid", "ptid", "perm", "start", "stop", "mod-some", "mod-most")
	wrong := 0 // rights that differ from their row's permission bit
	for _, r := range rows {
		// Targets must be disabled for the rpush probes; stop may have
		// disabled them already, which is fine.
		mgr.Context(r.ptid).State = hwthread.Disabled
		got := probe(r.vtid)
		for i, bit := range bits {
			if got[i] != r.perm.Has(bit) {
				wrong++
			}
		}
		t.Row(fmt.Sprintf("%#x", int64(r.vtid)), fmt.Sprintf("%#x", int64(r.ptid)),
			r.perm.String(), yn(got[0]), yn(got[1]), yn(got[2]), yn(got[3]))
	}

	// Non-hierarchical privilege probe (§3.2's B-over-A, C-over-B example).
	a, b, c := mgr.Context(4), mgr.Context(5), mgr.Context(6)
	a.State, b.State = hwthread.Runnable, hwthread.Runnable
	b.Regs.TDT = 0x9000
	hwthread.WriteTDTEntry(m, b.Regs.TDT, 0, hwthread.Entry{PTID: a.PTID, Perm: hwthread.PermStop})
	c.Regs.TDT = 0xA000
	hwthread.WriteTDTEntry(m, c.Regs.TDT, 0, hwthread.Entry{PTID: b.PTID, Perm: hwthread.PermStop})

	nh := metrics.NewTable("Non-hierarchical privilege (C>B, B>A, but not C>A)",
		"operation", "allowed")
	_, f1 := mgr.Stop(b, 0)
	nh.Row("B stops A", f1 == nil)
	_, f2 := mgr.Stop(c, 0)
	nh.Row("C stops B", f2 == nil)
	a.State = hwthread.Runnable
	_, f3 := mgr.Stop(c, 1) // C has no row for A
	nh.Row("C stops A", f3 == nil)

	res := &Result{Tables: []*metrics.Table{t, nh}}
	res.check("each TDT row grants exactly its permission bits", wrong == 0,
		"%d of %d rights differ from their bit", wrong, len(bits)*len(rows))
	res.check("B stops A and C stops B, but C cannot stop A", f1 == nil && f2 == nil && f3 != nil,
		"B stops A: %v, C stops B: %v, C stops A: %v", f1 == nil, f2 == nil, f3 == nil)
	res.Notes = append(res.Notes,
		"such a configuration is impossible in protection-ring designs (§3.2)")
	return res, nil
}

// runT2 reproduces the §4 storage arithmetic.
func runT2(cfg RunConfig) (*Result, error) {
	s := statestore.New(statestore.Config{}) // paper defaults: 64K RF, 128K L2 slice, 2M L3 slice
	c := s.Config()

	t := metrics.NewTable("Thread contexts per storage tier",
		"tier", "capacity", "threads @272B", "threads @784B (vector)")
	base := s.CapacityFor(isa.BaseStateBytes)
	vec := s.CapacityFor(isa.VectorStateBytes)
	for _, row := range []struct {
		tier statestore.Tier
		cap  int
	}{
		{statestore.TierRF, c.RFBytes},
		{statestore.TierL2, c.L2Bytes},
		{statestore.TierL3, c.L3Bytes},
	} {
		t.Row(row.tier.String(), fmt.Sprintf("%dKB", row.cap>>10),
			base[row.tier], vec[row.tier])
	}

	agg := metrics.NewTable("Aggregate cost (paper's 100-core example)",
		"cores", "RF bytes/core", "total RF", "paper figure")
	agg.Row(100, fmt.Sprintf("%dKB", c.RFBytes>>10),
		fmt.Sprintf("%.1fMB", float64(100*c.RFBytes)/(1<<20)), "6.4MB")

	res := &Result{Tables: []*metrics.Table{t, agg}}
	res.check("a 64KB RF holds 83 vector and 240 base contexts", vec[statestore.TierRF] == 83 && base[statestore.TierRF] == 240,
		"vector %d, base %d", vec[statestore.TierRF], base[statestore.TierRF])
	res.Notes = append(res.Notes,
		fmt.Sprintf("paper: \"the 64KByte register file ... can store the state for 83 to 224 x86-64 threads\"; we compute %d (vector) to %d (base)", vec[statestore.TierRF], base[statestore.TierRF]),
		"combining tiers supports hundreds to thousands of threads per core (§4)")
	return res, nil
}
