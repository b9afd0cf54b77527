package statestore

import (
	"strings"
	"testing"
	"testing/quick"

	"nocs/internal/isa"
	"nocs/internal/sim"
)

func small() *Store {
	// Tiny tiers so eviction logic is exercised: RF fits 2 base contexts,
	// L2 fits 4, L3 fits 8.
	return New(Config{
		RFBytes: 2 * isa.BaseStateBytes,
		L2Bytes: 4 * isa.BaseStateBytes,
		L3Bytes: 8 * isa.BaseStateBytes,
	})
}

func TestTierString(t *testing.T) {
	names := map[Tier]string{TierRF: "RF", TierL2: "L2", TierL3: "L3", TierDRAM: "DRAM"}
	for tr, want := range names {
		if tr.String() != want {
			t.Errorf("%d -> %q", tr, tr.String())
		}
	}
	if !strings.Contains(Tier(9).String(), "9") {
		t.Error("unknown tier name")
	}
}

func TestDefaults(t *testing.T) {
	s := New(Config{})
	cfg := s.Config()
	if cfg.RFBytes != 64<<10 || cfg.PipelineDepth != 20 {
		t.Fatalf("defaults: %+v", cfg)
	}
	if cfg.L2Transfer != 10 || cfg.L3Transfer != 50 {
		t.Fatalf("transfer defaults: %+v", cfg)
	}
}

func TestRegisterPlacementNearestFirst(t *testing.T) {
	s := small()
	for i := 0; i < 14; i++ {
		if err := s.Register(i, isa.BaseStateBytes); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range []Tier{TierRF, TierRF, TierL2, TierL2, TierL2, TierL2,
		TierL3, TierL3, TierL3, TierL3, TierL3, TierL3, TierL3, TierL3} {
		got, ok := s.TierOf(i)
		if !ok || got != want {
			t.Fatalf("thread %d in %v, want %v", i, got, want)
		}
	}
	// 15th spills to DRAM.
	s.Register(14, isa.BaseStateBytes)
	if tr, _ := s.TierOf(14); tr != TierDRAM {
		t.Fatalf("overflow thread in %v", tr)
	}
}

func TestRegisterErrors(t *testing.T) {
	s := small()
	if err := s.Register(1, 0); err == nil {
		t.Fatal("zero size accepted")
	}
	if err := s.Register(1, 100); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(1, 100); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if _, ok := s.TierOf(99); ok {
		t.Fatal("TierOf unknown id")
	}
}

func TestStartCostsByTier(t *testing.T) {
	s := New(Config{
		RFBytes: 1 * isa.BaseStateBytes,
		L2Bytes: 1 * isa.BaseStateBytes,
		L3Bytes: 1 * isa.BaseStateBytes,
	})
	cfg := s.Config()
	for i := 0; i < 4; i++ {
		s.Register(i, isa.BaseStateBytes)
	}
	wants := map[int]sim.Cycles{
		0: cfg.PipelineDepth,                    // RF
		1: cfg.PipelineDepth + cfg.L2Transfer,   // L2
		2: cfg.PipelineDepth + cfg.L3Transfer,   // L3
		3: cfg.PipelineDepth + cfg.DRAMTransfer, // DRAM
	}
	for id, want := range wants {
		got, err := s.StartCost(id, 0)
		if err != nil || got != want {
			t.Fatalf("StartCost(%d) = %v, %v; want %v", id, got, err, want)
		}
	}
	// Monotone in tier depth.
	if !(wants[0] < wants[1] && wants[1] < wants[2] && wants[2] < wants[3]) {
		t.Fatal("start cost not monotone in tier")
	}
}

func TestStartPromotesAndEvictsLRU(t *testing.T) {
	s := small() // RF holds 2
	for i := 0; i < 3; i++ {
		s.Register(i, isa.BaseStateBytes)
	}
	// 0,1 in RF; 2 in L2. Touch 1 to make 0 the LRU.
	s.Start(1, 10)
	s.Start(2, 20) // promotes 2, evicting 0
	if tr, _ := s.TierOf(2); tr != TierRF {
		t.Fatalf("thread 2 in %v after start", tr)
	}
	if tr, _ := s.TierOf(0); tr == TierRF {
		t.Fatal("LRU thread 0 not evicted")
	}
	if tr, _ := s.TierOf(1); tr != TierRF {
		t.Fatal("recently used thread 1 evicted")
	}
}

func TestStartUnknown(t *testing.T) {
	s := small()
	if _, err := s.Start(5, 0); err == nil {
		t.Fatal("start of unknown id")
	}
	if _, err := s.StartCost(5, 0); err == nil {
		t.Fatal("cost of unknown id")
	}
}

func TestPrefetchHidesTransfer(t *testing.T) {
	s := New(Config{
		RFBytes:  1 * isa.BaseStateBytes,
		L2Bytes:  4 * isa.BaseStateBytes,
		Prefetch: true,
	})
	cfg := s.Config()
	s.Register(0, isa.BaseStateBytes) // RF
	s.Register(1, isa.BaseStateBytes) // L2

	s.Prefetch(1, 100)
	// Start before transfer completes: full price.
	cost, _ := s.StartCost(1, 100+cfg.L2Transfer-1)
	if cost != cfg.PipelineDepth+cfg.L2Transfer {
		t.Fatalf("early start cost %v", cost)
	}
	// Start after: pipeline only.
	cost, err := s.Start(1, 100+cfg.L2Transfer)
	if err != nil || cost != cfg.PipelineDepth {
		t.Fatalf("prefetched start cost %v, %v", cost, err)
	}
	_, _, pf, hits, _ := s.Stats()
	if pf != 1 || hits != 1 {
		t.Fatalf("prefetch stats %d/%d", pf, hits)
	}
}

func TestPrefetchDisabled(t *testing.T) {
	s := New(Config{RFBytes: 1 * isa.BaseStateBytes, L2Bytes: 4 * isa.BaseStateBytes})
	s.Register(0, isa.BaseStateBytes)
	s.Register(1, isa.BaseStateBytes)
	s.Prefetch(1, 0)
	_, _, pf, _, _ := s.Stats()
	if pf != 0 {
		t.Fatal("prefetch recorded while disabled")
	}
	cost, _ := s.Start(1, 1000)
	if cost != s.Config().PipelineDepth+s.Config().L2Transfer {
		t.Fatalf("cost %v without prefetch", cost)
	}
}

func TestPinKeepsStateInRF(t *testing.T) {
	s := small() // RF = 2 contexts
	for i := 0; i < 3; i++ {
		s.Register(i, isa.BaseStateBytes)
	}
	if err := s.Pin(0, 0); err != nil {
		t.Fatal(err)
	}
	s.Pin(1, 0)
	// Starting thread 2 cannot evict pinned state: it stays out of the RF.
	s.Start(2, 50)
	if tr, _ := s.TierOf(2); tr == TierRF {
		t.Fatal("start displaced pinned state")
	}
	if tr, _ := s.TierOf(0); tr != TierRF {
		t.Fatal("pinned state evicted")
	}
	s.entries[0].pinned = false
	s.Start(2, 60)
	if tr, _ := s.TierOf(2); tr != TierRF {
		t.Fatal("unpinned state not evictable")
	}
	if err := s.Pin(99, 0); err == nil {
		t.Fatal("pin of unknown id")
	}
}

func TestResizeGrowth(t *testing.T) {
	s := small() // RF = 544 bytes
	s.Register(0, isa.BaseStateBytes)
	s.Register(1, isa.BaseStateBytes) // RF now full
	// Growing 0 to 784 exceeds RF: it must demote.
	if err := s.Resize(0, isa.VectorStateBytes); err != nil {
		t.Fatal(err)
	}
	if tr, _ := s.TierOf(0); tr == TierRF {
		t.Fatal("grown state still in full RF")
	}
	bytes, threads := s.Occupancy(TierRF)
	if bytes != isa.BaseStateBytes || threads != 1 {
		t.Fatalf("RF occupancy %d/%d", bytes, threads)
	}
	// Shrink in place always fits.
	if err := s.Resize(0, isa.BaseStateBytes); err != nil {
		t.Fatal(err)
	}
	if err := s.Resize(9, 10); err == nil {
		t.Fatal("resize unknown id")
	}
	if err := s.Resize(0, 0); err == nil {
		t.Fatal("resize to zero")
	}
}

func TestRemoveFreesCapacity(t *testing.T) {
	s := small()
	s.Register(0, isa.BaseStateBytes)
	s.Register(1, isa.BaseStateBytes)
	s.Remove(0)
	if s.Live() != 1 {
		t.Fatal("Live after remove")
	}
	s.Register(2, isa.BaseStateBytes)
	if tr, _ := s.TierOf(2); tr != TierRF {
		t.Fatal("freed RF capacity not reused")
	}
	s.Remove(99) // no-op
}

func TestCapacityForPaperArithmetic(t *testing.T) {
	// §4: a 64KB register file stores the state for ~83 threads at 784 B
	// and a few hundred at 272 B; 100 cores cost 6.4 MB.
	s := New(Config{}) // 64 KiB RF
	base := s.CapacityFor(isa.BaseStateBytes)
	vec := s.CapacityFor(isa.VectorStateBytes)
	if vec[TierRF] != 83 {
		t.Fatalf("vector threads per 64KB RF = %d, want 83 (paper)", vec[TierRF])
	}
	if base[TierRF] < 200 || base[TierRF] > 250 {
		t.Fatalf("base threads per 64KB RF = %d, want ~240", base[TierRF])
	}
	// "a few MB of an L3 cache can support hundreds of threads"
	if vec[TierL3] < 100 {
		t.Fatalf("L3 threads = %d, want hundreds", vec[TierL3])
	}
	if s.CapacityFor(0) != nil {
		t.Fatal("CapacityFor(0)")
	}
	totalRF := 100 * s.Config().RFBytes
	if totalRF != 6400<<10 {
		t.Fatalf("100-core RF bytes = %d, want 6.4MB", totalRF)
	}
}

// Property: occupancy accounting is exact — the sum of per-tier occupancies
// equals the number of live threads, per-tier bytes equal the sum of entry
// sizes, and no finite tier ever exceeds its capacity.
func TestAccountingInvariantProperty(t *testing.T) {
	type op struct {
		Kind byte
		ID   uint8
		Big  bool
	}
	f := func(ops []op) bool {
		s := small()
		now := sim.Cycles(0)
		for _, o := range ops {
			now += 7
			id := int(o.ID % 24)
			size := isa.BaseStateBytes
			if o.Big {
				size = isa.VectorStateBytes
			}
			switch o.Kind % 5 {
			case 0:
				_ = s.Register(id, size)
			case 1:
				s.Remove(id)
			case 2:
				_, _ = s.Start(id, now)
			case 3:
				_ = s.Resize(id, size)
			case 4:
				s.Prefetch(id, now)
			}
			total := 0
			for tr := TierRF; tr <= TierDRAM; tr++ {
				bytes, threads := s.Occupancy(tr)
				if bytes < 0 || threads < 0 {
					return false
				}
				if tr != TierDRAM {
					caps := []int{s.Config().RFBytes, s.Config().L2Bytes, s.Config().L3Bytes}
					if bytes > caps[tr] {
						return false
					}
				}
				total += threads
			}
			if total != s.Live() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: start cost is monotone — state never costs less from a deeper
// tier.
func TestStartCostMonotoneProperty(t *testing.T) {
	s := New(Config{RFBytes: isa.BaseStateBytes, L2Bytes: isa.BaseStateBytes, L3Bytes: isa.BaseStateBytes})
	for i := 0; i < 4; i++ {
		s.Register(i, isa.BaseStateBytes)
	}
	var prev sim.Cycles
	for i := 0; i < 4; i++ {
		c, err := s.StartCost(i, 0)
		if err != nil {
			t.Fatal(err)
		}
		if c < prev {
			t.Fatalf("cost decreased at thread %d: %v < %v", i, c, prev)
		}
		prev = c
	}
}

func TestDRAMStartCounted(t *testing.T) {
	s := New(Config{RFBytes: isa.BaseStateBytes, L2Bytes: isa.BaseStateBytes, L3Bytes: isa.BaseStateBytes})
	for i := 0; i < 4; i++ {
		s.Register(i, isa.BaseStateBytes)
	}
	s.Start(3, 0) // thread 3 lives in DRAM
	_, _, _, _, dram := s.Stats()
	if dram != 1 {
		t.Fatalf("dramStarts = %d", dram)
	}
}

// All-pinned tiers must never make promotion or demotion spin or panic: an
// incoming Start whose state cannot displace pinned residents stays where it
// is and pays its own tier's transfer cost. This pins down the audit of
// moveToRF/lruVictim/demote for the pathological "every victim is pinned"
// placements.
func TestAllPinnedTierTable(t *testing.T) {
	base := isa.BaseStateBytes
	checkAccounting := func(t *testing.T, s *Store, liveBytes int) {
		t.Helper()
		total := 0
		for tr := TierRF; tr < numTiers; tr++ {
			bytes, _ := s.Occupancy(tr)
			if bytes < 0 {
				t.Fatalf("tier %v accounting went negative: %d", tr, bytes)
			}
			total += bytes
		}
		if total != liveBytes {
			t.Fatalf("accounted bytes %d != live bytes %d", total, liveBytes)
		}
	}
	t.Run("start from L2 against all-pinned RF", func(t *testing.T) {
		s := small()
		for i := 0; i < 3; i++ {
			if err := s.Register(i, base); err != nil {
				t.Fatal(err)
			}
		}
		s.Pin(0, 0)
		s.Pin(1, 0)
		cost, err := s.Start(2, 10) // lives in L2; RF is fully pinned
		if err != nil {
			t.Fatal(err)
		}
		if tr, _ := s.TierOf(2); tr != TierL2 {
			t.Fatalf("thread 2 moved to %v, want to stay in L2", tr)
		}
		if want := s.Config().PipelineDepth + s.Config().L2Transfer; cost != want {
			t.Fatalf("cost %v, want %v (own tier's transfer)", cost, want)
		}
		checkAccounting(t, s, 3*base)
	})
	t.Run("start from DRAM against all-pinned RF", func(t *testing.T) {
		s := small()
		for i := 0; i < 15; i++ { // fills RF(2)+L2(4)+L3(8), 15th spills to DRAM
			if err := s.Register(i, base); err != nil {
				t.Fatal(err)
			}
		}
		s.Pin(0, 0)
		s.Pin(1, 0)
		cost, err := s.Start(14, 10)
		if err != nil {
			t.Fatal(err)
		}
		if tr, _ := s.TierOf(14); tr != TierDRAM {
			t.Fatalf("thread 14 in %v, want to stay in DRAM", tr)
		}
		if want := s.Config().PipelineDepth + s.Config().DRAMTransfer; cost != want {
			t.Fatalf("cost %v, want %v", cost, want)
		}
		if _, _, _, _, dram := s.Stats(); dram != 1 {
			t.Fatalf("dramStarts = %d, want 1", dram)
		}
		checkAccounting(t, s, 15*base)
	})
	t.Run("start of a pinned RF resident is a plain refill", func(t *testing.T) {
		s := small()
		s.Register(0, base)
		s.Pin(0, 0)
		cost, err := s.Start(0, 10)
		if err != nil {
			t.Fatal(err)
		}
		if cost != s.Config().PipelineDepth {
			t.Fatalf("cost %v, want bare pipeline depth", cost)
		}
		checkAccounting(t, s, base)
	})
	t.Run("resize growth in a full pinned RF demotes without spinning", func(t *testing.T) {
		s := small()
		s.Register(0, base)
		s.Register(1, base)
		s.Pin(0, 0)
		s.Pin(1, 0)
		// Growing 0 cannot fit beside pinned 1: capacity wins over the pin
		// and the state demotes to L2 (documented Resize behavior).
		if err := s.Resize(0, 2*base); err != nil {
			t.Fatal(err)
		}
		if tr, _ := s.TierOf(0); tr != TierL2 {
			t.Fatalf("grown thread in %v, want L2", tr)
		}
		checkAccounting(t, s, 3*base)
	})
	t.Run("remove of a pinned resident frees RF for promotion", func(t *testing.T) {
		s := small()
		for i := 0; i < 3; i++ {
			s.Register(i, base)
		}
		s.Pin(0, 0)
		s.Pin(1, 0)
		s.Remove(1)
		if _, err := s.Start(2, 10); err != nil {
			t.Fatal(err)
		}
		if tr, _ := s.TierOf(2); tr != TierRF {
			t.Fatalf("thread 2 in %v, want RF after pinned slot freed", tr)
		}
		checkAccounting(t, s, 2*base)
	})
	t.Run("pinned entries below RF do not wedge the demotion cascade", func(t *testing.T) {
		s := small()
		for i := 0; i < 6; i++ { // 0,1 in RF; 2..5 fill L2
			s.Register(i, base)
		}
		s.Pin(0, 0)
		s.Pin(1, 0)
		for i := 2; i < 6; i++ {
			s.Pin(i, 0) // cannot move to the full pinned RF: stays pinned in L2
		}
		// Growing an L2 resident must skip the all-pinned L2 victims and
		// land in L3 without spinning.
		if err := s.Resize(5, 2*base); err != nil {
			t.Fatal(err)
		}
		if tr, _ := s.TierOf(5); tr != TierL3 {
			t.Fatalf("grown thread in %v, want L3", tr)
		}
		checkAccounting(t, s, 7*base)
	})
}
