package kernel

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nocs/internal/faultinject"
	"nocs/internal/sim"
	"nocs/internal/snapshot"
	"nocs/internal/workload"
)

type compRec struct {
	id      int
	finish  sim.Cycles
	latency sim.Cycles
}

// buildQueueCase constructs one discipline on a fresh engine with a
// completion collector, plus the checkpoint components for it.
func buildQueueCase(kind string, eng *sim.Shard, faults bool, out *[]compRec) (QueueServer, []Component) {
	collect := func(c Completion) {
		*out = append(*out, compRec{c.Req.ID, c.Finish, c.Latency})
	}
	var inj *faultinject.Injector
	if faults {
		inj = faultinject.New(faultinject.Plan{Seed: 0xfa017, RequestFaultP: 0.05, RequestFaultPenalty: 1500})
	}
	switch kind {
	case "fcfs":
		s := NewFCFS(eng, 2, 120, collect)
		s.Faults = inj
		comps := []Component{{Name: "fcfs", C: s}}
		if inj != nil {
			comps = append(comps, FaultComponent("faults", inj))
		}
		return s, comps
	case "ps":
		s := NewPS(eng, 2, 60, collect)
		s.MaxActive = 6
		s.Faults = inj
		comps := []Component{{Name: "ps", C: s}}
		if inj != nil {
			comps = append(comps, FaultComponent("faults", inj))
		}
		return s, comps
	case "ts":
		s := NewTimeslice(eng, 2, 400, 90, collect)
		return s, []Component{{Name: "ts", C: s}}
	}
	panic("unknown kind " + kind)
}

func queueReqs() []workload.Request {
	rng := sim.NewRNG(11)
	arr := workload.NewPoissonArrivals(1000, rng)
	svc := workload.NewBimodal(600, 20000, 0.95, rng)
	return workload.Generate(300, 0, arr, svc)
}

// queueCases lists the discipline variants the checkpoint tests cover.
var queueCases = []struct {
	kind   string
	faults bool
}{{"fcfs", false}, {"fcfs", true}, {"ps", false}, {"ps", true}, {"ts", false}}

func queueCaseName(kind string, faults bool) string {
	if faults {
		return kind + "-faulted"
	}
	return kind
}

// submitQueue hands reqs to srv in one SubmitAll, or one Submit per request.
func submitQueue(srv QueueServer, reqs []workload.Request, each bool) {
	if !each {
		srv.SubmitAll(reqs)
		return
	}
	for _, r := range reqs {
		srv.Submit(r)
	}
}

// checkQueueRoundTrip runs one discipline straight through, then again with
// a checkpoint at the given cycle restored into a freshly built engine and
// server, and requires the continued completion stream to exactly extend
// the straight-through run's. Re-serializing the restored shard must give
// the original bytes (tombstones from PS's cancel-heavy rescheduling
// included).
func checkQueueRoundTrip(t *testing.T, kind string, faults bool, checkpoint sim.Cycles, each bool) {
	t.Helper()
	reqs := queueReqs()

	// Straight-through reference stream.
	var full []compRec
	engR := sim.SoloShard(sim.NewEngine(nil))
	srvR, _ := buildQueueCase(kind, engR, faults, &full)
	submitQueue(srvR, reqs, each)
	engR.Run(0)

	// Checkpointed run: prefix on A, snapshot, suffix on B.
	var prefix []compRec
	engA := sim.SoloShard(sim.NewEngine(nil))
	srvA, compsA := buildQueueCase(kind, engA, faults, &prefix)
	submitQueue(srvA, reqs, each)
	engA.RunUntil(checkpoint)

	b := snapshot.NewBuilder()
	if err := SnapshotShard(b, engA, compsA...); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	var suffix []compRec
	engB := sim.SoloShard(sim.NewEngine(nil))
	_, compsB := buildQueueCase(kind, engB, faults, &suffix)
	if err := RestoreShard(snap, engB, compsB...); err != nil {
		t.Fatal(err)
	}

	b2 := snapshot.NewBuilder()
	if err := SnapshotShard(b2, engB, compsB...); err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if _, err := b2.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatalf("restored shard re-serializes to different bytes (%d vs %d)", buf.Len(), buf2.Len())
	}

	engB.Run(0)
	got := append(append([]compRec(nil), prefix...), suffix...)
	if !reflect.DeepEqual(got, full) {
		t.Fatalf("restored completion stream diverged: prefix %d + suffix %d vs full %d",
			len(prefix), len(suffix), len(full))
	}
	if engB.Now() != engR.Now() || engB.Ran() != engR.Ran() {
		t.Fatalf("restored run ended at cycle %d after %d events, straight-through at %d after %d",
			engB.Now(), engB.Ran(), engR.Now(), engR.Ran())
	}
}

// TestQueueServerSnapshotRoundTrip checkpoints each discipline mid-run —
// requests queued, in service, and still arriving; for the faulted variants
// the injector RNG cursor mid-stream — and requires restore + run to equal
// the straight-through run.
func TestQueueServerSnapshotRoundTrip(t *testing.T) {
	for _, c := range queueCases {
		t.Run(queueCaseName(c.kind, c.faults), func(t *testing.T) {
			checkQueueRoundTrip(t, c.kind, c.faults, 120_000, false)
		})
	}
}

// TestQueueServerSnapshotMidStream checkpoints each discipline at other
// points of its arrival stream — before the first arrival fires (the whole
// batch still queued), early, and with only the tail left — for bulk and
// per-request submission alike.
func TestQueueServerSnapshotMidStream(t *testing.T) {
	for _, c := range queueCases {
		for _, checkpoint := range []sim.Cycles{0, 40_000, 250_000} {
			for _, each := range []bool{false, true} {
				name := fmt.Sprintf("%s/%d/each=%v", queueCaseName(c.kind, c.faults), checkpoint, each)
				t.Run(name, func(t *testing.T) {
					checkQueueRoundTrip(t, c.kind, c.faults, checkpoint, each)
				})
			}
		}
	}
}

// TestSnapshotShardUnclaimedEvent: a live event no component claims is a
// named checkpoint error, not a silent drop.
func TestSnapshotShardUnclaimedEvent(t *testing.T) {
	eng := sim.SoloShard(sim.NewEngine(nil))
	var sink []compRec
	_, comps := buildQueueCase("fcfs", eng, false, &sink)
	eng.After(10, "bench-glue", func() {})
	err := SnapshotShard(snapshot.NewBuilder(), eng, comps...)
	if err == nil || !strings.Contains(err.Error(), "bench-glue") {
		t.Fatalf("want unclaimed-event error naming bench-glue, got %v", err)
	}
}

// queueSnapshotGolden pins the NOCSNAP1 encoding of a mid-batch queue
// server: SHA-256 of the checkpoint written at cycle 120000 of the
// queueReqs batch. The hashes were recorded when every arrival was its own
// heap event. Pending arrivals are encoded as sorted (at, seq, request)
// records however the server holds them internally, so a change to the
// arrival bookkeeping must leave these hashes alone.
var queueSnapshotGolden = map[string]string{
	"fcfs":         "892a801127f13491be05ff89a910afd50bb89866ea441d1661623a17aac872b6", // 7088 bytes
	"fcfs-faulted": "68ee6183bbbc34d3315ad0091ef49be2563a6a407f91fcba19bbd1180149a8b9", // 7439 bytes
	"ps":           "37eb456128e74fd5a0e1718f0eaf456af87d717c7f054a0e2b5022a6f1d347c2", // 7173 bytes
	"ps-faulted":   "be2debace7dd323c150a9e071b9b91cddfd52fea557a5bfce207ed952c35750b", // 7184 bytes
	"ts":           "84bffb761f49ab83b9e205492cd1ef472406597621f35a6a03b279736e71ac10", // 7256 bytes
}

func TestQueueServerSnapshotGolden(t *testing.T) {
	for _, c := range queueCases {
		// Per-request Submit reserves the same sequence numbers as one
		// SubmitAll, so both must write the pinned bytes.
		for _, each := range []bool{false, true} {
			name := queueCaseName(c.kind, c.faults)
			var sink []compRec
			eng := sim.SoloShard(sim.NewEngine(nil))
			srv, comps := buildQueueCase(c.kind, eng, c.faults, &sink)
			submitQueue(srv, queueReqs(), each)
			eng.RunUntil(120_000)
			b := snapshot.NewBuilder()
			if err := SnapshotShard(b, eng, comps...); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := b.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != queueSnapshotGolden[name] {
				t.Errorf("%s (each=%v): NOCSNAP1 checkpoint hash %s, want %s", name, each, got, queueSnapshotGolden[name])
			}
		}
	}
}

// TestRestoreArrivalsRejectsCorruptRecords: the stream arms only its head on
// restore, so arrival records out of (at, seq) order, or whose event time is
// not their request's arrival, must fail with a named error.
func TestRestoreArrivalsRejectsCorruptRecords(t *testing.T) {
	type rec struct {
		at  sim.Cycles
		seq uint64
		r   workload.Request
	}
	req := func(id int, at sim.Cycles) workload.Request {
		return workload.Request{ID: id, Arrival: at, Demand: 10}
	}
	for name, recs := range map[string][]rec{
		"out of order":   {{50, 1, req(1, 50)}, {40, 2, req(2, 40)}},
		"duplicate key":  {{50, 1, req(1, 50)}, {50, 1, req(2, 50)}},
		"time mismatch":  {{50, 1, req(1, 60)}},
		"in order (ok)":  {{40, 2, req(2, 40)}, {50, 1, req(1, 50)}, {50, 3, req(3, 50)}},
		"empty (ok)":     nil,
		"single (ok)":    {{7, 0, req(0, 7)}},
		"seq order (ok)": {{9, 4, req(4, 9)}, {9, 5, req(5, 9)}},
	} {
		b := snapshot.NewBuilder()
		w := b.Section("arr")
		w.Len(len(recs))
		for _, e := range recs {
			w.I64(int64(e.at)).U64(e.seq)
			e.r.SnapshotState(w)
		}
		var buf bytes.Buffer
		if _, err := b.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		snap, err := snapshot.Decode(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		r, err := snap.Section("arr")
		if err != nil {
			t.Fatal(err)
		}
		q, err := restoreArrivals(r)
		if ok := strings.HasSuffix(name, "(ok)"); ok != (err == nil) {
			t.Errorf("%s: err = %v", name, err)
		} else if ok && len(q) != len(recs) {
			t.Errorf("%s: restored %d of %d records", name, len(q), len(recs))
		}
	}
}

// encodeShard checkpoints eng and comps and returns the container bytes.
func encodeShard(t *testing.T, eng *sim.Shard, comps ...Component) []byte {
	t.Helper()
	b := snapshot.NewBuilder()
	if err := SnapshotShard(b, eng, comps...); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotShardEventWrittenTwice: an event two components write is a
// named checkpoint error, not a duplicate at restore.
func TestSnapshotShardEventWrittenTwice(t *testing.T) {
	eng := sim.SoloShard(sim.NewEngine(nil))
	var sink []compRec
	srv, comps := buildQueueCase("fcfs", eng, false, &sink)
	srv.SubmitAll(queueReqs())
	eng.RunUntil(120_000)
	comps = append(comps, Component{Name: "fcfs-again", C: comps[0].C})
	err := SnapshotShard(snapshot.NewBuilder(), eng, comps...)
	if err == nil || !strings.Contains(err.Error(), "written by 2 codecs") || !strings.Contains(err.Error(), `"fcfs-`) {
		t.Fatalf("want an error naming an fcfs event written by 2 codecs, got %v", err)
	}
}

// flakyCodec fails its first snapshot, after the components ahead of it
// have claimed their events, and owns nothing.
type flakyCodec struct{ failed bool }

func (f *flakyCodec) SnapshotState(*snapshot.W) error {
	if !f.failed {
		f.failed = true
		return errors.New("flaky codec")
	}
	return nil
}

func (f *flakyCodec) RestoreState(*snapshot.R) error { return nil }

// TestSnapshotShardRetryAfterFailure: each pass starts from an empty claim
// set, so a snapshot that failed part-way and is then retried succeeds and
// writes the bytes of a pass that never failed.
func TestSnapshotShardRetryAfterFailure(t *testing.T) {
	for _, c := range queueCases {
		t.Run(queueCaseName(c.kind, c.faults), func(t *testing.T) {
			snap := func(failFirst bool) []byte {
				eng := sim.SoloShard(sim.NewEngine(nil))
				var sink []compRec
				srv, comps := buildQueueCase(c.kind, eng, c.faults, &sink)
				srv.SubmitAll(queueReqs())
				eng.RunUntil(120_000)
				comps = append(comps, Component{Name: "flaky", C: &flakyCodec{failed: !failFirst}})
				if failFirst {
					if err := SnapshotShard(snapshot.NewBuilder(), eng, comps...); err == nil {
						t.Fatal("the flaky codec's first snapshot succeeded")
					}
				}
				return encodeShard(t, eng, comps...)
			}
			if !bytes.Equal(snap(true), snap(false)) {
				t.Fatal("a retried snapshot differs from one that never failed")
			}
		})
	}
}

// busyAndK returns a pointer to srv's busy count and to its K.
func busyAndK(srv QueueServer) (busy, k *int) {
	switch s := srv.(type) {
	case *FCFSServer:
		return &s.busy, &s.K
	case *TimesliceServer:
		return &s.busy, &s.K
	}
	panic(fmt.Sprintf("no busy count in %T", srv))
}

// TestRestoreRejectsBadBusyCount: each busy server has exactly one in-flight
// completion (FCFS) or quantum-slice (timeslice) record and at most K are
// busy, so a server section whose busy count says otherwise must fail
// restore with ErrBusyCount rather than starve the queue or overrun K.
func TestRestoreRejectsBadBusyCount(t *testing.T) {
	for _, kind := range []string{"fcfs", "ts"} {
		for _, tc := range []struct {
			name  string
			delta int // added to the checkpointed busy count
			k     int // the restore target's K (0 = as built)
		}{
			{"valid", 0, 0},
			{"one-more", 1, 0},
			{"one-fewer", -1, 0},
			{"over-K", 0, 1},
		} {
			t.Run(kind+"/"+tc.name, func(t *testing.T) {
				var sink []compRec
				eng := sim.SoloShard(sim.NewEngine(nil))
				srv, comps := buildQueueCase(kind, eng, false, &sink)
				srv.SubmitAll(queueReqs())
				eng.RunUntil(120_000)
				busy, _ := busyAndK(srv)
				if *busy != 2 {
					t.Fatalf("%d servers busy at the checkpoint, want 2", *busy)
				}
				*busy += tc.delta
				snap, err := snapshot.Decode(encodeShard(t, eng, comps...))
				if err != nil {
					t.Fatal(err)
				}

				dstEng := sim.SoloShard(sim.NewEngine(nil))
				dst, dstComps := buildQueueCase(kind, dstEng, false, &sink)
				if tc.k > 0 {
					_, k := busyAndK(dst)
					*k = tc.k
				}
				err = RestoreShard(snap, dstEng, dstComps...)
				if tc.name == "valid" {
					if err != nil {
						t.Fatal(err)
					}
					return
				}
				if !errors.Is(err, ErrBusyCount) {
					t.Fatalf("restore returned %v, want ErrBusyCount", err)
				}
			})
		}
	}
}
