package kernel

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

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
func buildQueueCase(kind string, eng *sim.Shard, out *[]compRec) (QueueServer, []Component) {
	collect := func(c Completion) {
		*out = append(*out, compRec{c.Req.ID, c.Finish, c.Latency})
	}
	switch kind {
	case "fcfs":
		s := NewFCFS(eng, 2, 120, collect)
		return s, []Component{{Name: "fcfs", C: s}}
	case "ps":
		s := NewPS(eng, 2, 60, collect)
		s.MaxActive = 6
		return s, []Component{{Name: "ps", C: s}}
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

// queueCases lists the disciplines the checkpoint tests cover.
var queueCases = []string{"fcfs", "ps", "ts"}

// submitQueue hands reqs to srv one Submit per request: in arrival order
// when each is set, otherwise from last to first, so that every request
// after the first sorts in ahead of the whole queue and is armed at once.
func submitQueue(srv QueueServer, reqs []workload.Request, each bool) {
	for i := range reqs {
		if !each {
			i = len(reqs) - 1 - i
		}
		srv.Submit(reqs[i])
	}
}

// checkQueueRoundTrip runs one discipline straight through, then again with
// a checkpoint at the given cycle restored into a freshly built engine and
// server, and requires the continued completion stream to exactly extend
// the straight-through run's. Re-serializing the restored shard must give
// the original bytes (tombstones from PS's cancel-heavy rescheduling
// included).
func checkQueueRoundTrip(t *testing.T, kind string, checkpoint sim.Cycles, each bool) {
	t.Helper()
	reqs := queueReqs()

	// Straight-through reference stream.
	var full []compRec
	engR := sim.SoloShard(sim.NewEngine(nil))
	srvR, _ := buildQueueCase(kind, engR, &full)
	submitQueue(srvR, reqs, each)
	engR.Run(0)

	// Checkpointed run: prefix on A, snapshot, suffix on B.
	var prefix []compRec
	engA := sim.SoloShard(sim.NewEngine(nil))
	srvA, compsA := buildQueueCase(kind, engA, &prefix)
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
	_, compsB := buildQueueCase(kind, engB, &suffix)
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
// requests queued, in service, and still arriving — and requires restore +
// run to equal the straight-through run.
func TestQueueServerSnapshotRoundTrip(t *testing.T) {
	for _, kind := range queueCases {
		t.Run(kind, func(t *testing.T) {
			checkQueueRoundTrip(t, kind, 120_000, false)
		})
	}
}

// TestQueueServerSnapshotMidStream checkpoints each discipline at other
// points of its arrival stream — before the first arrival fires (the whole
// batch still queued), early, and with only the tail left — for a batch
// submitted in arrival order and one submitted last to first.
func TestQueueServerSnapshotMidStream(t *testing.T) {
	for _, kind := range queueCases {
		for _, checkpoint := range []sim.Cycles{0, 40_000, 250_000} {
			for _, each := range []bool{false, true} {
				name := fmt.Sprintf("%s/%d/each=%v", kind, checkpoint, each)
				t.Run(name, func(t *testing.T) {
					checkQueueRoundTrip(t, kind, checkpoint, each)
				})
			}
		}
	}
}

// TestSnapshotRefusesPendingTrain: a server whose request train still has
// requests to draw refuses a checkpoint with ErrTrainPending, since its
// queue alone would be a truncated train; once the train is drawn, the same
// server checkpoints.
func TestSnapshotRefusesPendingTrain(t *testing.T) {
	for _, kind := range queueCases {
		t.Run(kind, func(t *testing.T) {
			var sink []compRec
			eng := sim.SoloShard(sim.NewEngine(nil))
			srv, comps := buildQueueCase(kind, eng, &sink)
			reqs := queueReqs()
			arr, _ := srv.feed()
			arr.stream(&sliceSource{reqs}, len(reqs))
			eng.RunUntil(120_000)
			if err := SnapshotShard(snapshot.NewBuilder(), eng, comps...); !errors.Is(err, ErrTrainPending) {
				t.Fatalf("checkpoint mid-train: got %v, want ErrTrainPending", err)
			}
			eng.RunUntil(reqs[len(reqs)-1].Arrival)
			if err := SnapshotShard(snapshot.NewBuilder(), eng, comps...); err != nil {
				t.Fatalf("checkpoint once the train is drawn: %v", err)
			}
		})
	}
}

// TestSnapshotShardUnclaimedEvent: a live event no component claims is a
// named checkpoint error, not a silent drop.
func TestSnapshotShardUnclaimedEvent(t *testing.T) {
	eng := sim.SoloShard(sim.NewEngine(nil))
	var sink []compRec
	_, comps := buildQueueCase("fcfs", eng, &sink)
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
	"fcfs": "892a801127f13491be05ff89a910afd50bb89866ea441d1661623a17aac872b6", // 7088 bytes
	"ps":   "37eb456128e74fd5a0e1718f0eaf456af87d717c7f054a0e2b5022a6f1d347c2", // 7173 bytes
	"ts":   "84bffb761f49ab83b9e205492cd1ef472406597621f35a6a03b279736e71ac10", // 7256 bytes
}

func TestQueueServerSnapshotGolden(t *testing.T) {
	for _, name := range queueCases {
		var sink []compRec
		eng := sim.SoloShard(sim.NewEngine(nil))
		srv, comps := buildQueueCase(name, eng, &sink)
		submitQueue(srv, queueReqs(), true)
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
			t.Errorf("%s: NOCSNAP1 checkpoint hash %s, want %s", name, got, queueSnapshotGolden[name])
		}
	}
}

// TestRestoreArrivalsRejectsCorruptRecords: the stream arms only its head on
// restore, so arrival records out of (at, seq) order, whose event time is
// not their request's arrival, or timed before the restored clock must fail
// with a named error.
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
		"out of order":     {{50, 1, req(1, 50)}, {40, 2, req(2, 40)}},
		"duplicate key":    {{50, 1, req(1, 50)}, {50, 1, req(2, 50)}},
		"time mismatch":    {{50, 1, req(1, 60)}},
		"before the clock": {{-5, 1, req(1, -5)}},
		"in order (ok)":    {{40, 2, req(2, 40)}, {50, 1, req(1, 50)}, {50, 3, req(3, 50)}},
		"empty (ok)":       nil,
		"single (ok)":      {{7, 0, req(0, 7)}},
		"seq order (ok)":   {{9, 4, req(4, 9)}, {9, 5, req(5, 9)}},
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
		a := arrivals{eng: sim.SoloShard(sim.NewEngine(nil)), name: "arr"}
		err = a.restoreState(r)
		if ok := strings.HasSuffix(name, "(ok)"); ok != (err == nil) {
			t.Errorf("%s: err = %v", name, err)
		} else if ok && len(a.q) != len(recs) {
			t.Errorf("%s: restored %d of %d records", name, len(a.q), len(recs))
		}
		if name == "before the clock" && !errors.Is(err, sim.ErrEventRecord) {
			t.Errorf("%s: err = %v, want sim.ErrEventRecord", name, err)
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
	srv, comps := buildQueueCase("fcfs", eng, &sink)
	submitQueue(srv, queueReqs(), true)
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
	for _, kind := range queueCases {
		t.Run(kind, func(t *testing.T) {
			snap := func(failFirst bool) []byte {
				eng := sim.SoloShard(sim.NewEngine(nil))
				var sink []compRec
				srv, comps := buildQueueCase(kind, eng, &sink)
				submitQueue(srv, queueReqs(), true)
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
				srv, comps := buildQueueCase(kind, eng, &sink)
				submitQueue(srv, queueReqs(), true)
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
				dst, dstComps := buildQueueCase(kind, dstEng, &sink)
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

// splicedCodec writes srv's section with the bytes [off, off+del) replaced
// by ins; a negative off counts from the section's end.
type splicedCodec struct {
	srv      snapshot.Codec
	off, del int
	ins      []byte
}

func (c splicedCodec) SnapshotState(w *snapshot.W) error {
	b := snapshot.NewBuilder()
	if err := c.srv.SnapshotState(b.Section("s")); err != nil {
		return err
	}
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		return err
	}
	snap, err := snapshot.Decode(buf.Bytes())
	if err != nil {
		return err
	}
	r, err := snap.Section("s")
	if err != nil {
		return err
	}
	raw := make([]byte, r.Remaining())
	for i := range raw {
		raw[i] = r.U8()
	}
	off := c.off
	if off < 0 {
		off += len(raw)
	}
	raw = slices.Concat(raw[:off], c.ins, raw[off+c.del:])
	copy(w.Reserve(len(raw)), raw)
	return nil
}

func (c splicedCodec) RestoreState(r *snapshot.R) error { return c.srv.RestoreState(r) }

// TestRestoreRejectsFaultState: no FCFS or PS server faults a request, so a
// section whose kept fault slots are set must fail restore with
// ErrFaultState, naming the section. Each slot is set in a checkpoint taken
// at cycle 120000 of the queueReqs batch, where both FCFS servers are busy
// and PS has active requests.
func TestRestoreRejectsFaultState(t *testing.T) {
	const req = 24 // bytes per encoded request: ID, arrival, demand
	u64 := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	for _, tc := range []struct {
		kind, name string
		// splice returns where to splice what into srv's section.
		splice func(srv QueueServer) (off, del int, ins []byte)
	}{
		{"fcfs", "valid", func(QueueServer) (int, int, []byte) { return 0, 0, nil }},
		{"fcfs", "faulted", func(srv QueueServer) (int, int, []byte) {
			return 4 + req*srv.(*FCFSServer).queue.Len() + 16, 8, u64(1)
		}},
		{"fcfs", "faulted once", func(srv QueueServer) (int, int, []byte) {
			// A one-entry list: its length, then request ID 5.
			return 4 + req*srv.(*FCFSServer).queue.Len() + 24, 4, append([]byte{1, 0, 0, 0}, u64(5)...)
		}},
		{"fcfs", "record penalty", func(QueueServer) (int, int, []byte) { return -9, 8, u64(300) }},
		{"fcfs", "record fault", func(QueueServer) (int, int, []byte) { return -1, 1, []byte{1} }},
		{"ps", "valid", func(QueueServer) (int, int, []byte) { return 0, 0, nil }},
		{"ps", "faulted", func(srv QueueServer) (int, int, []byte) {
			s := srv.(*PSServer)
			return 4 + (req+16)*len(s.active) + 4 + req*s.pending.Len() + 16, 8, u64(1)
		}},
		{"ps", "record penalty", func(QueueServer) (int, int, []byte) { return 4 + req + 8, 8, u64(300) }},
	} {
		t.Run(tc.kind+"/"+tc.name, func(t *testing.T) {
			var sink []compRec
			eng := sim.SoloShard(sim.NewEngine(nil))
			srv, comps := buildQueueCase(tc.kind, eng, &sink)
			submitQueue(srv, queueReqs(), true)
			eng.RunUntil(120_000)
			sc := splicedCodec{srv: comps[0].C}
			sc.off, sc.del, sc.ins = tc.splice(srv)
			snap, err := snapshot.Decode(encodeShard(t, eng, Component{Name: comps[0].Name, C: sc}))
			if err != nil {
				t.Fatal(err)
			}
			dstEng := sim.SoloShard(sim.NewEngine(nil))
			_, dstComps := buildQueueCase(tc.kind, dstEng, &sink)
			err = RestoreShard(snap, dstEng, dstComps...)
			if tc.name == "valid" {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			if !errors.Is(err, ErrFaultState) || !strings.Contains(err.Error(), `section "srv/`+tc.kind+`"`) {
				t.Fatalf("restore returned %v, want ErrFaultState naming section srv/%s", err, tc.kind)
			}
		})
	}
}
