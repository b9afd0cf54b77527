package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"nocs/internal/snapshot"
)

// sampleSnapshot builds a container exercising every W writer across several
// sections, the shared fixture for the fuzzer seeds and the malformed-input
// sweeps.
func sampleSnapshot(t testing.TB) []byte {
	t.Helper()
	b := snapshot.NewBuilder()
	b.Section("engine").U64(42).I64(-7).U32(0xDEADBEEF).U8(3).Bool(true)
	b.Section("mem").Len(2).I64(1 << 40).I64(-(1 << 40)).F64(3.14159)
	b.Section("rng").String("xoshiro").I64s([]int64{5, -6, 7})
	b.Section("empty")
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reseal recomputes the trailing checksum after a surgical edit to the body,
// so tests can corrupt a specific field without also tripping the crc check.
func reseal(data []byte) []byte {
	out := append([]byte(nil), data...)
	body := out[:len(out)-4]
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(body))
	return out
}

// versionBumped returns the sample with its version field patched to v and a
// valid checksum, i.e. a well-formed snapshot from a different format version.
func versionBumped(t testing.TB, v uint32) []byte {
	data := append([]byte(nil), sampleSnapshot(t)...)
	binary.LittleEndian.PutUint32(data[len(snapshot.Magic):], v)
	return reseal(data)
}

// FuzzSnapshotRoundTrip holds the codec's two load-bearing properties against
// arbitrary input: Decode never panics (malformed bytes yield an error), and
// any input that does decode re-encodes canonically — decode→encode→decode is
// a fixed point, byte-identical to the original stream.
func FuzzSnapshotRoundTrip(f *testing.F) {
	valid := sampleSnapshot(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(snapshot.Magic))
	f.Add(valid[:len(valid)/2])                     // truncated mid-section
	f.Add(versionBumped(f, snapshot.Version+1))     // future format version
	f.Add(append(append([]byte(nil), valid...), 0)) // trailing garbage
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/3] ^= 0x40
	f.Add(corrupt) // checksum mismatch

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := snapshot.Decode(data)
		s2, err2 := snapshot.Read(bytes.NewReader(data))
		if (err == nil) != (err2 == nil) {
			t.Fatalf("Decode err=%v but Read err=%v on the same bytes", err, err2)
		}
		if err != nil {
			return // graceful rejection is the property; nothing to round-trip
		}
		if got, want := s2.Sections(), s.Sections(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Read sections %v != Decode sections %v", got, want)
		}

		var buf bytes.Buffer
		n, err := s.WriteTo(&buf)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
		}
		// The framing has no redundant encodings and Decode rejects trailing
		// bytes, so a decodable stream must re-encode to itself.
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("re-encode differs from original:\n got %x\nwant %x", buf.Bytes(), data)
		}
		rt, err := snapshot.Decode(buf.Bytes())
		if err != nil {
			t.Fatalf("decode of re-encoded stream: %v", err)
		}
		if got, want := rt.Sections(), s.Sections(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round-trip sections %v != original %v", got, want)
		}
		for _, name := range s.Sections() {
			if !rt.Has(name) {
				t.Fatalf("round-trip lost section %q", name)
			}
		}
	})
}

// TestDecodeMalformed sweeps the deterministic malformed-input space the
// fuzzer samples randomly: every truncation length and every single-byte
// corruption of a valid snapshot must produce an error, never a panic or a
// silently wrong decode.
func TestDecodeMalformed(t *testing.T) {
	valid := sampleSnapshot(t)

	t.Run("every-truncation", func(t *testing.T) {
		for k := 0; k < len(valid); k++ {
			if _, err := snapshot.Decode(valid[:k]); err == nil {
				t.Fatalf("truncation to %d/%d bytes decoded without error", k, len(valid))
			}
		}
	})

	t.Run("every-byte-flip", func(t *testing.T) {
		for i := range valid {
			mut := append([]byte(nil), valid...)
			mut[i] ^= 0xFF
			if _, err := snapshot.Decode(mut); err == nil {
				t.Fatalf("flipping byte %d decoded without error", i)
			}
		}
	})

	t.Run("version-bump", func(t *testing.T) {
		_, err := snapshot.Decode(versionBumped(t, snapshot.Version+1))
		if err == nil || !bytes.Contains([]byte(err.Error()), []byte("version")) {
			t.Fatalf("version-bumped snapshot: got %v, want a version error", err)
		}
	})

	t.Run("trailing-bytes", func(t *testing.T) {
		if _, err := snapshot.Decode(reseal(append(append([]byte(nil), valid...), 0, 0, 0, 0, 0))); err == nil {
			t.Fatal("trailing bytes decoded without error")
		}
	})

	t.Run("duplicate-section", func(t *testing.T) {
		b := snapshot.NewBuilder()
		b.Section("twice").U64(1)
		b.Section("twice").U64(2)
		if _, err := b.WriteTo(&bytes.Buffer{}); err == nil {
			t.Fatal("duplicate section encoded without error")
		}
	})
}

// TestSectionRoundTrip checks W/R symmetry for every cursor type, plus the
// sticky-error contract: reading past the end fails once and zeroes forever.
func TestSectionRoundTrip(t *testing.T) {
	s, err := snapshot.Decode(sampleSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}

	r, err := s.Section("engine")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.U64(); got != 42 {
		t.Fatalf("U64 = %d, want 42", got)
	}
	if got := r.I64(); got != -7 {
		t.Fatalf("I64 = %d, want -7", got)
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Fatalf("U32 = %#x", got)
	}
	if got := r.U8(); got != 3 {
		t.Fatalf("U8 = %d", got)
	}
	if !r.Bool() {
		t.Fatal("Bool = false, want true")
	}
	if r.Remaining() != 0 || r.Err() != nil {
		t.Fatalf("engine section: remaining=%d err=%v", r.Remaining(), r.Err())
	}
	// One read past the end trips the sticky error.
	if got := r.U64(); got != 0 {
		t.Fatalf("overread returned %d, want 0", got)
	}
	if r.Err() == nil {
		t.Fatal("overread did not set the sticky error")
	}

	r, err = s.Section("rng")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.String(); got != "xoshiro" {
		t.Fatalf("String = %q", got)
	}
	if got := r.I64s(); !reflect.DeepEqual(got, []int64{5, -6, 7}) {
		t.Fatalf("I64s = %v", got)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}

	if _, err := s.Section("absent"); err == nil {
		t.Fatal("missing section lookup did not error")
	}
}

// TestGenerateFuzzCorpus regenerates the checked-in seed corpus under
// testdata/fuzz/FuzzSnapshotRoundTrip. It is skipped unless NOCS_GEN_CORPUS
// is set, so the corpus stays stable in normal runs:
//
//	NOCS_GEN_CORPUS=1 go test ./internal/snapshot -run TestGenerateFuzzCorpus
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("NOCS_GEN_CORPUS") == "" {
		t.Skip("set NOCS_GEN_CORPUS=1 to regenerate the checked-in corpus")
	}
	valid := sampleSnapshot(t)
	empty := func() []byte {
		var buf bytes.Buffer
		if _, err := snapshot.NewBuilder().WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/3] ^= 0x40
	entries := map[string][]byte{
		"valid-multisection": valid,
		"valid-empty":        empty,
		"truncated":          valid[:len(valid)/2],
		"version-bumped":     versionBumped(t, snapshot.Version+1),
		"corrupted":          corrupt,
		"bad-magic":          []byte("NOTASNAP"),
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzSnapshotRoundTrip")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range entries {
		content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestoreChecksSectionEnd: Restore runs a section's decoder and fails,
// naming the section, when the decoder leaves bytes unread or reads past
// the end; a decoder that reads the section exactly passes.
func TestRestoreChecksSectionEnd(t *testing.T) {
	s, err := snapshot.Decode(sampleSnapshot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		decode func(r *snapshot.R) error
		want   string // "" = no error
	}{
		{"exact", func(r *snapshot.R) error {
			r.U64()
			r.I64()
			r.U32()
			r.U8()
			r.Bool()
			return nil
		}, ""},
		{"unread", func(r *snapshot.R) error { r.U64(); return nil }, `section "engine": 14 bytes left unread`},
		{"past end", func(r *snapshot.R) error {
			for range 4 {
				r.U64()
			}
			return nil
		}, `section "engine": truncated reading u64`},
		{"decoder error", func(r *snapshot.R) error { return errors.New("bad record") }, `section "engine": bad record`},
	} {
		err := s.Restore("engine", tc.decode)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	if err := s.Restore("absent", func(*snapshot.R) error { return nil }); err == nil || !strings.Contains(err.Error(), `"absent"`) {
		t.Errorf("missing section: err = %v", err)
	}
}

// TestBoolRejectsNonCanonicalBytes: W.Bool writes only 0 and 1, so R.Bool
// refuses any other byte and every accepted section re-encodes to itself.
func TestBoolRejectsNonCanonicalBytes(t *testing.T) {
	b := snapshot.NewBuilder()
	b.Section("b").U8(0).U8(1).U8(2)
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := snapshot.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Section("b")
	if err != nil {
		t.Fatal(err)
	}
	if r.Bool() || !r.Bool() || r.Err() != nil {
		t.Fatalf("0 and 1 should read as false and true, err %v", r.Err())
	}
	r.Bool()
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "bool byte 2") {
		t.Fatalf("byte 2 read as a bool: err = %v", err)
	}
}

// TestSkipZeroU32s: SkipZeroU32s reads exactly the leading zero u32s, odd
// runs and a zero beside a non-zero in one eight-byte word included, no more
// than the limit, and none of a truncated one, leaving the next read to
// see what follows.
func TestSkipZeroU32s(t *testing.T) {
	for _, tc := range []struct {
		name   string
		vals   []uint32
		tail   int // bytes after vals: a truncated u32
		limit  int
		want   int
		thenOK bool // the next U32 reads the value after the run
	}{
		{"none", []uint32{7, 0}, 0, 2, 0, true},
		{"odd run", []uint32{0, 0, 0, 9}, 0, 4, 3, true},
		{"even run", []uint32{0, 0, 0, 0, 5, 0}, 0, 6, 4, true},
		{"bounded by the limit", []uint32{0, 0, 0, 0, 0}, 0, 3, 3, true},
		{"all zero", []uint32{0, 0, 0}, 0, 3, 3, false},
		{"truncated tail", []uint32{0, 0, 0}, 2, 4, 3, false},
	} {
		b := snapshot.NewBuilder()
		w := b.Section("z")
		for _, v := range tc.vals {
			w.U32(v)
		}
		for range tc.tail {
			w.U8(0)
		}
		var buf bytes.Buffer
		if _, err := b.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		s, err := snapshot.Decode(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Section("z")
		if err != nil {
			t.Fatal(err)
		}
		if got := r.SkipZeroU32s(tc.limit); got != tc.want {
			t.Fatalf("%s: skipped %d, want %d", tc.name, got, tc.want)
		}
		if got, want := r.Remaining(), 4*(len(tc.vals)-tc.want)+tc.tail; got != want {
			t.Fatalf("%s: %d bytes remain, want %d", tc.name, got, want)
		}
		if tc.thenOK {
			if v := r.U32(); r.Err() != nil || v != tc.vals[tc.want] {
				t.Fatalf("%s: next read %d (err %v), want %d", tc.name, v, r.Err(), tc.vals[tc.want])
			}
		}
	}
}
