package bench

import (
	"bytes"
	"testing"

	"nocs/internal/machine"
	"nocs/internal/sim"
	"nocs/internal/snapshot"
)

// enduranceTestConfig is small enough for -race CI but still sharded, so
// checkpoints land with live cross-shard ring traffic.
func enduranceTestConfig() EnduranceConfig {
	return EnduranceConfig{Cores: 4, Shards: 4, Workers: 1, Horizon: 60_000}
}

// TestEnduranceCheckpointResume is the CLI contract end to end: a
// checkpointed run must render the straight-through run's Result byte for
// byte, and resuming from any emitted checkpoint must too.
func TestEnduranceCheckpointResume(t *testing.T) {
	cfg := RunConfig{Seed: 1}
	ec := enduranceTestConfig()

	straight, err := runEndurance(cfg, ec)
	if err != nil {
		t.Fatal(err)
	}
	if metric(t, straight, "token_hops") == 0 {
		t.Fatalf("token ring never advanced:\n%s", straight)
	}

	type ckpt struct {
		at   sim.Cycles
		data []byte
	}
	var ckpts []ckpt
	ccfg := cfg
	ccfg.Checkpoint.Every = 20_000
	ccfg.Checkpoint.Sink = func(at sim.Cycles, data []byte) error {
		ckpts = append(ckpts, ckpt{at, append([]byte(nil), data...)})
		return nil
	}
	res, err := runEndurance(ccfg, ec)
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != straight.String() {
		t.Fatalf("checkpointing perturbed the run:\n got %s\nwant %s", res, straight)
	}
	if len(ckpts) != 2 {
		t.Fatalf("%d checkpoints over 60k cycles every 20k, want 2", len(ckpts))
	}

	for _, ck := range ckpts {
		snap, err := snapshot.Decode(ck.data)
		if err != nil {
			t.Fatalf("decode checkpoint at %d: %v", ck.at, err)
		}
		rcfg := cfg
		rcfg.FromSnapshot = snap
		rres, err := runEndurance(rcfg, ec)
		if err != nil {
			t.Fatalf("resume from cycle %d: %v", ck.at, err)
		}
		if rres.String() != straight.String() {
			t.Fatalf("resume from cycle %d diverged:\n got %s\nwant %s", ck.at, rres, straight)
		}
	}
}

// TestFromSnapshotFork is the warm-start sweep pattern: one machine is run
// to a warm point and snapshotted once; several forks then restore from the
// same decoded snapshot and continue independently, each landing in exactly
// the state of the straight-through run.
func TestFromSnapshotFork(t *testing.T) {
	cfg := RunConfig{Seed: 1}
	ec := enduranceTestConfig()

	ref, err := BuildEndurance(cfg, ec)
	if err != nil {
		t.Fatal(err)
	}
	ref.RunUntil(ec.Horizon)
	want := EnduranceSummary(ec, ref)

	warm, err := BuildEndurance(cfg, ec)
	if err != nil {
		t.Fatal(err)
	}
	warm.RunUntil(25_000)
	var buf bytes.Buffer
	if err := warm.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	fcfg := cfg
	fcfg.FromSnapshot = snap
	for fork := 0; fork < 3; fork++ {
		m, err := BuildEndurance(fcfg, ec)
		if err != nil {
			t.Fatalf("fork %d: %v", fork, err)
		}
		if m.Now() != 25_000 {
			t.Fatalf("fork %d woke at cycle %d, want 25000", fork, m.Now())
		}
		m.RunUntil(ec.Horizon)
		if got := EnduranceSummary(ec, m); got != want {
			t.Fatalf("fork %d diverged:\n got %q\nwant %q", fork, got, want)
		}
	}
}

// sameShardWrites counts a checkpoint's xmsgs records for token writes
// queued between two cores of one shard (src == to).
func sameShardWrites(t *testing.T, ckpt []byte) int {
	t.Helper()
	snap, err := snapshot.Decode(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	r, err := snap.Section("xmsgs")
	if err != nil {
		t.Fatal(err)
	}
	for range r.Len(8) {
		r.U64()
	}
	n := 0
	for range r.Len(48) {
		r.I64() // at
		src := r.I64()
		r.U64() // seq
		if r.I64() == src {
			n++
		}
		r.I64() // addr
		r.I64() // val
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestEnduranceCheckpointSharedShards runs the endurance ring with four
// cores on one and on two shards, where token writes pass between cores of
// one shard, and checkpoints it every 97 cycles from 500 to 60,000: every
// checkpoint must succeed. The first checkpoint holding a queued
// same-shard write warm-starts a serial and a 4-worker machine; each must
// re-serialize to the same bytes and end at the straight-through summary.
func TestEnduranceCheckpointSharedShards(t *testing.T) {
	cfg := RunConfig{Seed: 1}
	for _, shards := range []int{1, 2} {
		ec := EnduranceConfig{Cores: 4, Shards: shards, Workers: 1, Horizon: 60_000}
		build := func(cfg RunConfig, workers int) *machine.Machine {
			ec := ec
			ec.Workers = workers
			m, err := BuildEndurance(cfg, ec)
			if err != nil {
				t.Fatalf("shards=%d: %v", shards, err)
			}
			return m
		}
		straight := build(cfg, 1)
		straight.RunUntil(ec.Horizon)
		want := EnduranceSummary(ec, straight)

		m := build(cfg, 1)
		var queued []byte
		for at := sim.Cycles(500); at <= ec.Horizon; at += 97 {
			m.RunUntil(at)
			var buf bytes.Buffer
			if err := m.Snapshot(&buf); err != nil {
				t.Fatalf("shards=%d: checkpoint at cycle %d: %v", shards, at, err)
			}
			if queued == nil && sameShardWrites(t, buf.Bytes()) > 0 {
				queued = buf.Bytes()
			}
		}
		if queued == nil {
			t.Fatalf("shards=%d: no checkpoint holds a queued same-shard write", shards)
		}
		snap, err := snapshot.Decode(queued)
		if err != nil {
			t.Fatal(err)
		}
		rcfg := cfg
		rcfg.FromSnapshot = snap
		for _, workers := range []int{1, 4} {
			r := build(rcfg, workers)
			var re bytes.Buffer
			if err := r.Snapshot(&re); err != nil {
				t.Fatalf("shards=%d workers=%d re-snapshot: %v", shards, workers, err)
			}
			if !bytes.Equal(queued, re.Bytes()) {
				t.Fatalf("shards=%d workers=%d: snapshot not byte-stable across restore", shards, workers)
			}
			r.RunUntil(ec.Horizon)
			if got := EnduranceSummary(ec, r); got != want {
				t.Fatalf("shards=%d workers=%d restore diverged:\n got %s\nwant %s", shards, workers, got, want)
			}
		}
	}
}
