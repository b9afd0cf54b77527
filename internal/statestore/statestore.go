// Package statestore models §4's storage hierarchy for hardware-thread
// architectural state ("Storage for Thread State").
//
// A core keeps the state of its many ptids in tiers:
//
//	RF   — dedicated large register files (GPU-style). Starting a thread
//	       whose state is here costs only the pipeline refill, ~20 cycles.
//	L2   — a reserved slice of the private L2. Bulk-transferring a context
//	       in costs 10–50 extra cycles (§4: "3ns to 16ns for a 3GHz CPU").
//	L3   — a reserved slice of the shared L3; same transfer model, slower.
//	DRAM — the overflow tier. §4: "L3 misses served by off-chip memory lead
//	       to severe performance losses"; starts from here are painful and
//	       should be as rare as "swapping memory pages to disk".
//
// The store tracks where each thread's state lives, promotes state to the RF
// when a thread starts (demoting least-recently-used state down the stack),
// and optionally prefetches state toward the RF when a thread becomes
// runnable before it is scheduled (§4: "hardware prefetching of the state of
// recently woken up threads closer to the processor core").
package statestore

import (
	"fmt"

	"nocs/internal/faultinject"
	"nocs/internal/sim"
)

// Tier identifies a storage level for thread state.
type Tier int

// Storage tiers, nearest first.
const (
	TierRF Tier = iota
	TierL2
	TierL3
	TierDRAM
	numTiers
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierRF:
		return "RF"
	case TierL2:
		return "L2"
	case TierL3:
		return "L3"
	case TierDRAM:
		return "DRAM"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// Config sizes the hierarchy and its transfer costs. Zero values select
// defaults taken from the paper's §4 arithmetic.
type Config struct {
	// RFBytes is the dedicated register-file capacity (default 64 KiB — the
	// paper's V100 sub-core example, giving "83 to 224 x86-64 threads").
	RFBytes int
	// L2Bytes is the L2 slice reserved for thread state (default 128 KiB,
	// "a fraction of a 512KB private L2 ... tens of threads").
	L2Bytes int
	// L3Bytes is the per-core L3 slice (default 2 MiB, "a few MB of an L3
	// cache can support hundreds of threads").
	L3Bytes int
	// PipelineDepth is the cost of starting a thread whose state is already
	// in the RF (default 20: "proportional to the length of the pipeline,
	// roughly 20 clock cycles").
	PipelineDepth sim.Cycles
	// L2Transfer and L3Transfer are the extra cycles to pull state from the
	// cache tiers (defaults 10 and 50 — the paper's quoted range endpoints).
	L2Transfer sim.Cycles
	L3Transfer sim.Cycles
	// DRAMTransfer is the extra cost from the overflow tier (default 400).
	DRAMTransfer sim.Cycles
	// Prefetch enables promote-on-wakeup (ablation A3 turns it off).
	Prefetch bool
}

func (c *Config) setDefaults() {
	if c.RFBytes == 0 {
		c.RFBytes = 64 << 10
	}
	if c.L2Bytes == 0 {
		c.L2Bytes = 128 << 10
	}
	if c.L3Bytes == 0 {
		c.L3Bytes = 2 << 20
	}
	if c.PipelineDepth == 0 {
		c.PipelineDepth = 20
	}
	if c.L2Transfer == 0 {
		c.L2Transfer = 10
	}
	if c.L3Transfer == 0 {
		c.L3Transfer = 50
	}
	if c.DRAMTransfer == 0 {
		c.DRAMTransfer = 400
	}
}

type entry struct {
	id      int
	bytes   int
	tier    Tier
	lastUse sim.Cycles
	// prefetch target: when non-zero and reached, the state behaves as if
	// already resident in the RF.
	prefetchReady sim.Cycles
	pinned        bool
}

// Store tracks thread-state placement for one core.
type Store struct {
	cfg     Config
	entries map[int]*entry
	free    sim.FreeList[entry] // recycles removed entries
	used    [numTiers]int
	caps    [numTiers]int

	promotions   uint64
	demotions    uint64
	prefetches   uint64
	prefetchHits uint64
	dramStarts   uint64

	// inj injects transient ECC-style transfer errors (nil = off).
	inj           *faultinject.Injector
	xferRetries   uint64
	tierFallbacks uint64
}

// SetFaultInjector arms state-transfer fault injection (machine wiring).
func (s *Store) SetFaultInjector(inj *faultinject.Injector) { s.inj = inj }

// New builds a store with the given configuration.
func New(cfg Config) *Store {
	cfg.setDefaults()
	s := &Store{cfg: cfg, entries: make(map[int]*entry)}
	s.caps = [numTiers]int{cfg.RFBytes, cfg.L2Bytes, cfg.L3Bytes, 1 << 62}
	return s
}

// Config returns the effective configuration (defaults resolved).
func (s *Store) Config() Config { return s.cfg }

// Register places a new thread's state in the nearest tier with room.
// Registering an existing id or a non-positive size is an error.
func (s *Store) Register(id, bytes int) error {
	if bytes <= 0 {
		return fmt.Errorf("statestore: thread %d state size %d", id, bytes)
	}
	if _, ok := s.entries[id]; ok {
		return fmt.Errorf("statestore: thread %d already registered", id)
	}
	e := s.free.Get()
	*e = entry{id: id, bytes: bytes, tier: TierDRAM}
	for t := TierRF; t < numTiers; t++ {
		if s.used[t]+bytes <= s.caps[t] {
			e.tier = t
			break
		}
	}
	s.used[e.tier] += bytes
	s.entries[id] = e
	return nil
}

// Remove discards a thread's state.
func (s *Store) Remove(id int) {
	if e, ok := s.entries[id]; ok {
		s.used[e.tier] -= e.bytes
		delete(s.entries, id)
		s.free.Put(e)
	}
}

// TierOf reports where a thread's state currently lives.
func (s *Store) TierOf(id int) (Tier, bool) {
	e, ok := s.entries[id]
	if !ok {
		return 0, false
	}
	return e.tier, true
}

// Resize updates a thread's state footprint (272 → 784 bytes when the FP
// state becomes live). If the current tier cannot hold the growth, the
// thread's state is demoted to the nearest tier that can.
func (s *Store) Resize(id, bytes int) error {
	e, ok := s.entries[id]
	if !ok {
		return fmt.Errorf("statestore: resize of unregistered thread %d", id)
	}
	if bytes <= 0 {
		return fmt.Errorf("statestore: thread %d state size %d", id, bytes)
	}
	delta := bytes - e.bytes
	if delta == 0 {
		return nil
	}
	if s.used[e.tier]+delta <= s.caps[e.tier] {
		s.used[e.tier] += delta
		e.bytes = bytes
		return nil
	}
	// Demote to the nearest tier below with room.
	s.used[e.tier] -= e.bytes
	e.bytes = bytes
	for t := e.tier + 1; t < numTiers; t++ {
		if s.used[t]+bytes <= s.caps[t] {
			e.tier = t
			s.used[t] += bytes
			s.demotions++
			return nil
		}
	}
	// DRAM always has room (cap is effectively unbounded).
	e.tier = TierDRAM
	s.used[TierDRAM] += bytes
	s.demotions++
	return nil
}

// transferCost returns the extra cycles to pull state from tier t into the
// pipeline, on top of the pipeline refill.
func (s *Store) transferCost(t Tier) sim.Cycles {
	switch t {
	case TierRF:
		return 0
	case TierL2:
		return s.cfg.L2Transfer
	case TierL3:
		return s.cfg.L3Transfer
	default:
		return s.cfg.DRAMTransfer
	}
}

// faultedTransfer charges a state transfer from tier t, degrading
// gracefully under injected ECC-style errors: each transient fault costs a
// retry; when the retry budget is exhausted, the transfer falls back to the
// clean copy one tier further out (inclusive hierarchy) and pays that
// tier's cost on top. The transfer always completes — degraded, never lost.
func (s *Store) faultedTransfer(t Tier) sim.Cycles {
	cost := s.transferCost(t)
	if s.inj == nil {
		return cost
	}
	retries := 0
	for s.inj.TransferFault(t.String()) {
		if retries >= s.inj.TransferRetries() {
			ft := t + 1
			if ft >= numTiers {
				ft = TierDRAM
			}
			s.tierFallbacks++
			cost += s.transferCost(ft)
			return cost
		}
		retries++
		s.xferRetries++
		cost += s.inj.TransferRetryCost()
	}
	return cost
}

// StartCost previews the cycles a Start would charge now, without mutating
// placement.
func (s *Store) StartCost(id int, now sim.Cycles) (sim.Cycles, error) {
	e, ok := s.entries[id]
	if !ok {
		return 0, fmt.Errorf("statestore: start of unregistered thread %d", id)
	}
	if e.tier == TierRF || (e.prefetchReady != 0 && now >= e.prefetchReady) {
		return s.cfg.PipelineDepth, nil
	}
	return s.cfg.PipelineDepth + s.transferCost(e.tier), nil
}

// Start charges the cost of beginning execution of thread id at time now and
// promotes its state to the RF (demoting LRU victims down the stack as
// needed). It returns the start latency.
func (s *Store) Start(id int, now sim.Cycles) (sim.Cycles, error) {
	e, ok := s.entries[id]
	if !ok {
		return 0, fmt.Errorf("statestore: start of unregistered thread %d", id)
	}
	cost := s.cfg.PipelineDepth
	prefetched := e.prefetchReady != 0 && now >= e.prefetchReady
	if e.tier != TierRF {
		if prefetched {
			s.prefetchHits++
		} else {
			cost += s.faultedTransfer(e.tier)
			if e.tier == TierDRAM {
				s.dramStarts++
			}
		}
		s.moveToRF(e, now)
	}
	e.prefetchReady = 0
	e.lastUse = now
	return cost, nil
}

// Prefetch begins moving a woken thread's state toward the RF (§4). After
// the transfer latency elapses, a subsequent Start pays only the pipeline
// refill. Disabled when cfg.Prefetch is false.
func (s *Store) Prefetch(id int, now sim.Cycles) {
	if !s.cfg.Prefetch {
		return
	}
	e, ok := s.entries[id]
	if !ok || e.tier == TierRF {
		return
	}
	if e.prefetchReady == 0 {
		e.prefetchReady = now + s.transferCost(e.tier)
		s.prefetches++
	}
}

// Pin keeps a thread's state in the RF regardless of LRU pressure — §4's
// "selecting which threads are stored closer to the core based on
// criticality". Pinned state is promoted immediately (uncharged: pinning is
// a configuration act, not a start).
func (s *Store) Pin(id int, now sim.Cycles) error {
	e, ok := s.entries[id]
	if !ok {
		return fmt.Errorf("statestore: pin of unregistered thread %d", id)
	}
	e.pinned = true
	if e.tier != TierRF {
		s.moveToRF(e, now)
	}
	e.lastUse = now
	return nil
}

// moveToRF promotes e into the register file, demoting LRU victims.
// If e can never fit (pinned state plus e exceeds the RF), no eviction
// happens and e stays where it is.
func (s *Store) moveToRF(e *entry, now sim.Cycles) {
	immovable := 0
	for _, x := range s.entries {
		if x.tier == TierRF && x.pinned && x.id != e.id {
			immovable += x.bytes
		}
	}
	if immovable+e.bytes > s.caps[TierRF] {
		return
	}
	s.used[e.tier] -= e.bytes
	for s.used[TierRF]+e.bytes > s.caps[TierRF] {
		v := s.lruVictim(TierRF, e.id)
		if v == nil {
			// Unreachable given the feasibility check, but re-place e
			// through the normal search rather than corrupt accounting.
			s.place(e)
			return
		}
		s.demote(v)
	}
	e.tier = TierRF
	s.used[TierRF] += e.bytes
	e.lastUse = now
	s.promotions++
}

// place puts an unaccounted entry into the nearest tier with room.
func (s *Store) place(e *entry) {
	for t := TierRF; t < numTiers; t++ {
		if s.used[t]+e.bytes <= s.caps[t] {
			e.tier = t
			s.used[t] += e.bytes
			return
		}
	}
	e.tier = TierDRAM
	s.used[TierDRAM] += e.bytes
}

// lruVictim finds the least-recently-used unpinned entry in tier t,
// excluding id. Ties break on the lower thread id for determinism.
func (s *Store) lruVictim(t Tier, excludeID int) *entry {
	var victim *entry
	for _, e := range s.entries {
		if e.tier != t || e.pinned || e.id == excludeID {
			continue
		}
		if victim == nil || e.lastUse < victim.lastUse ||
			(e.lastUse == victim.lastUse && e.id < victim.id) {
			victim = e
		}
	}
	return victim
}

// demote pushes an entry one tier down, cascading evictions as needed.
func (s *Store) demote(e *entry) {
	s.used[e.tier] -= e.bytes
	for t := e.tier + 1; t < numTiers; t++ {
		for s.used[t]+e.bytes > s.caps[t] {
			v := s.lruVictim(t, e.id)
			if v == nil {
				break
			}
			s.demote(v)
		}
		if s.used[t]+e.bytes <= s.caps[t] {
			e.tier = t
			s.used[t] += e.bytes
			s.demotions++
			return
		}
	}
	e.tier = TierDRAM
	s.used[TierDRAM] += e.bytes
	s.demotions++
}

// Occupancy returns the bytes used and thread count in a tier.
func (s *Store) Occupancy(t Tier) (bytes, threads int) {
	for _, e := range s.entries {
		if e.tier == t {
			threads++
		}
	}
	return s.used[t], threads
}

// Live returns the total number of registered threads.
func (s *Store) Live() int { return len(s.entries) }

// Stats returns cumulative counters.
func (s *Store) Stats() (promotions, demotions, prefetches, prefetchHits, dramStarts uint64) {
	return s.promotions, s.demotions, s.prefetches, s.prefetchHits, s.dramStarts
}

// CapacityFor returns how many threads of the given state size fit in each
// tier — the arithmetic behind the paper's "83 to 224 threads in a 64KB
// register file" and experiment T2.
func (s *Store) CapacityFor(stateBytes int) map[Tier]int {
	if stateBytes <= 0 {
		return nil
	}
	return map[Tier]int{
		TierRF: s.caps[TierRF] / stateBytes,
		TierL2: s.caps[TierL2] / stateBytes,
		TierL3: s.caps[TierL3] / stateBytes,
	}
}
