package pipeline

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"nocs/internal/snapshot"
)

// pipelineSectionGolden pins the NOCSNAP1 bytes of churnedPipeline's
// section. It was recorded before the round-robin issue model was retired:
// that model's credits, issued and cursor fields were always zero in a live
// machine and are now written as literal zeros, so the bytes must not move.
const pipelineSectionGolden = "c571ddb97f2e3d4e41b73e69eca15ed70527821ab7bfb874d1c7faf93cbf8f2d"

func churnedPipeline() *Pipeline {
	p := New(2)
	for i := 0; i < 6; i++ {
		p.Add(i, 1+i%3)
	}
	p.Remove(2)
	p.Add(9, 4)
	p.Add(1, 5) // weight update
	p.Remove(0)
	p.Slowdown(3) // fill a slowdown cache: never serialized
	return p
}

// encode writes one pipeline section into a NOCSNAP1 checkpoint.
func encode(t *testing.T, write func(w *snapshot.W)) []byte {
	t.Helper()
	b := snapshot.NewBuilder()
	write(b.Section("pipeline"))
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decode restores a fresh 2-slot pipeline of a 16-thread core from
// encode's output.
func decode(t *testing.T, data []byte) (*Pipeline, error) {
	t.Helper()
	snap, err := snapshot.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	r, err := snap.Section("pipeline")
	if err != nil {
		t.Fatal(err)
	}
	p := New(2)
	return p, p.RestoreState(r, 16)
}

func TestPipelineSectionGolden(t *testing.T) {
	data := encode(t, churnedPipeline().SnapshotState)
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != pipelineSectionGolden {
		t.Fatalf("pipeline section hash %s, want %s", got, pipelineSectionGolden)
	}
	p, err := decode(t, data)
	if err != nil {
		t.Fatal(err)
	}
	want := churnedPipeline()
	if p.String() != want.String() || p.Slowdown(3) != want.Slowdown(3) || p.Weight(1) != 5 || p.Contains(2) {
		t.Fatalf("restored %v, want %v", p, want)
	}
	if again := encode(t, p.SnapshotState); !bytes.Equal(again, data) {
		t.Fatal("re-snapshot of the restored pipeline differs")
	}
}

// TestRestoreRejectsIssueState: a section whose retired round-robin fields
// are not zero was not written by this codec and is refused by name.
func TestRestoreRejectsIssueState(t *testing.T) {
	for name, f := range map[string][3]int64{
		"credits": {3, 0, 0},
		"issued":  {0, 7, 0},
		"cursor":  {0, 0, 1},
	} {
		data := encode(t, func(w *snapshot.W) {
			w.I64(2).Len(2)
			w.I64(4).I64(1).I64(f[0]).U64(uint64(f[1]))
			w.I64(5).I64(1).I64(0).U64(0)
			w.I64(f[2])
		})
		if _, err := decode(t, data); !errors.Is(err, ErrIssueState) {
			t.Errorf("%s: restore error %v, want ErrIssueState", name, err)
		}
	}
}

// TestRestoreRejectsThreadRecords: a runnable-thread record no live pipeline
// could have written is refused with ErrThreadRecord before the id table
// grows.
func TestRestoreRejectsThreadRecords(t *testing.T) {
	for _, tc := range []struct {
		name       string
		id, weight int64
	}{
		{"negative id", -1, 1},
		{"id at thread count", 16, 1},
		{"huge id", 1 << 26, 1},
		{"repeated id", 4, 1},
		{"zero weight", 5, 0},
	} {
		data := encode(t, func(w *snapshot.W) {
			w.I64(2).Len(2)
			w.I64(4).I64(1).I64(0).U64(0)
			w.I64(tc.id).I64(tc.weight).I64(0).U64(0)
			w.I64(0)
		})
		p, err := decode(t, data)
		if !errors.Is(err, ErrThreadRecord) {
			t.Errorf("%s: restore error %v, want ErrThreadRecord", tc.name, err)
		}
		if len(p.pos) > 16 {
			t.Errorf("%s: id table grew to %d entries", tc.name, len(p.pos))
		}
	}
}
