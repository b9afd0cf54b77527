// Package snapshot is the versioned binary container format for full-machine
// checkpoints (DESIGN.md §13). A snapshot is a flat sequence of named
// sections, each an opaque little-endian payload written by one subsystem
// (engine heaps, register files, memory words, device in-flight operations,
// RNG cursors, ...), framed as:
//
//	magic   [8]byte  "NOCSNAP1"
//	version u32      format version (bumped on any incompatible layout change)
//	nsect   u32      section count
//	nsect × { name: u32 len + bytes, payload: u64 len + bytes }
//	crc32   u32      IEEE checksum of everything above
//
// The codec never panics on hostile input: truncated, corrupted, or
// version-bumped snapshots decode to descriptive errors (FuzzSnapshotRoundTrip
// holds that line). Section payloads are written and read through the W/R
// cursor types below, which use sticky errors so call sites read a whole
// layout and check once. Restore walks a decoded section through its reader
// and checks that the reader consumed it exactly.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Magic identifies a snapshot stream.
const Magic = "NOCSNAP1"

// Version is the current format version. Readers reject snapshots written by
// a different version: the format favors explicit re-checkpointing over
// silent cross-version migration (DESIGN.md §13, versioning policy).
const Version uint32 = 1

// maxSections and maxSectionBytes bound hostile headers before any
// allocation is attempted.
const (
	maxSections     = 1 << 16
	maxSectionBytes = 1 << 31
)

// Builder accumulates named sections and serializes the container.
type Builder struct {
	names    []string
	payloads [][]byte
}

// NewBuilder returns an empty snapshot builder.
func NewBuilder() *Builder { return &Builder{} }

// Section starts a new named section and returns its payload writer. Section
// names must be unique; duplicates are caught at WriteTo time.
func (b *Builder) Section(name string) *W {
	b.names = append(b.names, name)
	b.payloads = append(b.payloads, nil)
	return &W{b: b, idx: len(b.payloads) - 1}
}

// WriteTo serializes the container: header, sections in insertion order,
// trailing checksum.
func (b *Builder) WriteTo(w io.Writer) (int64, error) {
	seen := make(map[string]bool, len(b.names))
	for _, n := range b.names {
		if seen[n] {
			return 0, fmt.Errorf("snapshot: duplicate section %q", n)
		}
		seen[n] = true
	}
	var buf []byte
	buf = append(buf, Magic...)
	buf = binary.LittleEndian.AppendUint32(buf, Version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b.names)))
	for i, n := range b.names {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(n)))
		buf = append(buf, n...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(b.payloads[i])))
		buf = append(buf, b.payloads[i]...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	n, err := w.Write(buf)
	return int64(n), err
}

// W is a section payload writer. All integers are little-endian fixed width.
type W struct {
	b   *Builder
	idx int
}

func (w *W) buf() []byte       { return w.b.payloads[w.idx] }
func (w *W) setBuf(buf []byte) { w.b.payloads[w.idx] = buf }
func (w *W) U64(v uint64) *W   { w.setBuf(binary.LittleEndian.AppendUint64(w.buf(), v)); return w }
func (w *W) I64(v int64) *W    { return w.U64(uint64(v)) }
func (w *W) U32(v uint32) *W   { w.setBuf(binary.LittleEndian.AppendUint32(w.buf(), v)); return w }
func (w *W) U8(v uint8) *W     { w.setBuf(append(w.buf(), v)); return w }
func (w *W) F64(v float64) *W  { return w.U64(math.Float64bits(v)) }
func (w *W) Len(n int) *W      { return w.U32(uint32(n)) }

// Bool writes a single byte 0/1.
func (w *W) Bool(v bool) *W {
	if v {
		return w.U8(1)
	}
	return w.U8(0)
}

// String writes a length-prefixed string.
func (w *W) String(s string) *W {
	w.U32(uint32(len(s)))
	w.setBuf(append(w.buf(), s...))
	return w
}

// I64s writes a length-prefixed slice of int64.
func (w *W) I64s(vs []int64) *W {
	w.Len(len(vs))
	for _, v := range vs {
		w.I64(v)
	}
	return w
}

// Snapshot is a decoded container.
type Snapshot struct {
	// Version is the format version the stream declared.
	Version  uint32
	names    []string
	payloads [][]byte
	index    map[string]int
}

// Read decodes a snapshot container, verifying magic, version, framing, and
// checksum. It never panics: malformed input yields an error.
func Read(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(io.LimitReader(r, maxSectionBytes))
	if err != nil {
		return nil, fmt.Errorf("snapshot: read: %w", err)
	}
	return Decode(data)
}

// Decode decodes a snapshot container from a byte slice.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < len(Magic)+4+4+4 {
		return nil, fmt.Errorf("snapshot: truncated header (%d bytes)", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("snapshot: bad magic %q", data[:len(Magic)])
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != sum {
		return nil, fmt.Errorf("snapshot: checksum mismatch (stored %08x, computed %08x)", sum, got)
	}
	off := len(Magic)
	version := binary.LittleEndian.Uint32(body[off:])
	off += 4
	if version != Version {
		return nil, fmt.Errorf("snapshot: version %d not supported (want %d); re-checkpoint with this build", version, Version)
	}
	nsect := binary.LittleEndian.Uint32(body[off:])
	off += 4
	if nsect > maxSections {
		return nil, fmt.Errorf("snapshot: implausible section count %d", nsect)
	}
	s := &Snapshot{Version: version, index: make(map[string]int, nsect)}
	for i := uint32(0); i < nsect; i++ {
		if off+4 > len(body) {
			return nil, fmt.Errorf("snapshot: truncated at section %d name length", i)
		}
		nlen := int(binary.LittleEndian.Uint32(body[off:]))
		off += 4
		if nlen < 0 || off+nlen > len(body) {
			return nil, fmt.Errorf("snapshot: truncated at section %d name", i)
		}
		name := string(body[off : off+nlen])
		off += nlen
		if off+8 > len(body) {
			return nil, fmt.Errorf("snapshot: truncated at section %q payload length", name)
		}
		plen := binary.LittleEndian.Uint64(body[off:])
		off += 8
		if plen > maxSectionBytes || off+int(plen) > len(body) {
			return nil, fmt.Errorf("snapshot: truncated in section %q payload (%d bytes declared)", name, plen)
		}
		if _, dup := s.index[name]; dup {
			return nil, fmt.Errorf("snapshot: duplicate section %q", name)
		}
		payload := make([]byte, plen)
		copy(payload, body[off:off+int(plen)])
		off += int(plen)
		s.index[name] = len(s.names)
		s.names = append(s.names, name)
		s.payloads = append(s.payloads, payload)
	}
	if off != len(body) {
		return nil, fmt.Errorf("snapshot: %d trailing bytes after last section", len(body)-off)
	}
	return s, nil
}

// Sections lists the section names in stream order.
func (s *Snapshot) Sections() []string { return append([]string(nil), s.names...) }

// Has reports whether a section is present.
func (s *Snapshot) Has(name string) bool { _, ok := s.index[name]; return ok }

// Codec is the checkpoint surface of a component that owns one section.
// SnapshotState writes the component's dynamic state, including a record
// for every live event it owns (sim.Engine.WriteEvent or ClaimLive, which
// claims the event); RestoreState reads that state back into the live
// component, in the order SnapshotState wrote it, and re-creates the owned
// events at their original slots (DESIGN.md §13).
type Codec interface {
	SnapshotState(w *W) error
	RestoreState(r *R) error
}

// Restore fetches the named section and runs decode over it. It fails with
// an error naming the section when the section is missing, when decode
// fails or reads past the section's end, and when decode leaves bytes
// unread: a field one codec half writes and the other does not read is a
// restore error, not a silent shift of every later field.
func (s *Snapshot) Restore(name string, decode func(*R) error) error {
	r, err := s.Section(name)
	if err != nil {
		return err
	}
	if err := decode(r); err != nil {
		if err == r.err { // the reader's own error names the section
			return err
		}
		return fmt.Errorf("snapshot: section %q: %w", name, err)
	}
	if r.err != nil {
		return r.err
	}
	if n := r.Remaining(); n > 0 {
		return fmt.Errorf("snapshot: section %q: %d bytes left unread", name, n)
	}
	return nil
}

// Section returns a cursor over the named section's payload.
func (s *Snapshot) Section(name string) (*R, error) {
	i, ok := s.index[name]
	if !ok {
		return nil, fmt.Errorf("snapshot: missing section %q", name)
	}
	return &R{name: name, buf: s.payloads[i]}, nil
}

// WriteTo re-encodes the snapshot (used by the round-trip fuzzer to check
// decode→encode→decode stability).
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	b := &Builder{names: s.names, payloads: s.payloads}
	return b.WriteTo(w)
}

// R is a section payload cursor with a sticky error: after the first
// out-of-bounds read every further read returns zero values, and Err reports
// the failure once at the end.
type R struct {
	name string
	buf  []byte
	off  int
	err  error
}

func (r *R) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("snapshot: section %q: truncated reading %s at offset %d", r.name, what, r.off)
	}
}

// Fail records err as the reader's sticky error, naming the section, unless
// an earlier read already failed. Decoders use it for records that are well
// formed but could not have been written (sim.ErrEventRecord).
func (r *R) Fail(err error) {
	if r.err == nil {
		r.err = fmt.Errorf("snapshot: section %q: %w", r.name, err)
	}
}

// Err returns the first read error, if any.
func (r *R) Err() error { return r.err }

// Remaining returns the number of unread payload bytes.
func (r *R) Remaining() int { return len(r.buf) - r.off }

func (r *R) U64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *R) I64() int64   { return int64(r.U64()) }
func (r *R) F64() float64 { return math.Float64frombits(r.U64()) }

func (r *R) U32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *R) U8() uint8 {
	if r.err != nil || r.off+1 > len(r.buf) {
		r.fail("u8")
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// Bool reads a byte written by W.Bool. Any byte other than 0 or 1 is an
// error, so each state has one encoding.
func (r *R) Bool() bool {
	v := r.U8()
	if v > 1 && r.err == nil {
		r.err = fmt.Errorf("snapshot: section %q: bool byte %d at offset %d", r.name, v, r.off-1)
	}
	return v == 1
}

// Len reads a count written by W.Len and bounds it against the remaining
// payload assuming at least minElemBytes per element, so hostile counts fail
// before any allocation.
func (r *R) Len(minElemBytes int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if minElemBytes < 1 {
		minElemBytes = 1
	}
	if n < 0 || n*minElemBytes > r.Remaining() {
		r.fail(fmt.Sprintf("length %d (× %dB exceeds %dB remaining)", n, minElemBytes, r.Remaining()))
		return 0
	}
	return n
}

func (r *R) String() string {
	n := int(r.U32())
	if r.err != nil {
		return ""
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.fail("string")
		return ""
	}
	v := string(r.buf[r.off : r.off+n])
	r.off += n
	return v
}

// I64s reads a slice written by W.I64s.
func (r *R) I64s() []int64 {
	n := r.Len(8)
	if r.err != nil || n == 0 {
		return nil
	}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = r.I64()
	}
	return vs
}
