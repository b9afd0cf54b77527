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
//
// Buffer ownership. Each W owns its section's payload buffer, and
// Builder.WriteTo writes every payload to its destination once, with no
// intermediate stream buffer. A Snapshot from Decode aliases the slice it
// was given: its payloads, and the StringBytes a reader returns, are
// sub-slices of it, so the caller must not modify that slice while it
// restores (Read owns the slice it reads into; `nocsim -resume` hands Decode
// its own os.ReadFile buffer). Codecs may decode in place into the live
// component's storage (mem.Cache reuses each set's block of lines), so a
// failed restore leaves the component unspecified.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
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
	sections []*W
}

// NewBuilder returns an empty snapshot builder.
func NewBuilder() *Builder { return &Builder{} }

// Section starts a new named section and returns its payload writer. Section
// names must be unique; duplicates are caught at WriteTo time.
func (b *Builder) Section(name string) *W {
	w := &W{name: name}
	b.sections = append(b.sections, w)
	return w
}

// WriteTo streams the container to w: header, sections in insertion order,
// trailing checksum. Each payload goes to w once, straight from its
// section's buffer, under a running checksum; a destination that can Grow
// (bytes.Buffer) is first grown to the stream's exact size. Every section
// costs w two Write calls, so a file destination wants a bufio.Writer.
func (b *Builder) WriteTo(w io.Writer) (int64, error) {
	seen := make(map[string]bool, len(b.sections))
	size := len(Magic) + 4 + 4 + 4
	for _, s := range b.sections {
		if seen[s.name] {
			return 0, fmt.Errorf("snapshot: duplicate section %q", s.name)
		}
		seen[s.name] = true
		size += 4 + len(s.name) + 8 + len(s.buf)
	}
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(size)
	}
	cw := &crcWriter{w: w}
	frame := append(make([]byte, 0, 64), Magic...)
	frame = binary.LittleEndian.AppendUint32(frame, Version)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(b.sections)))
	cw.write(frame)
	for _, s := range b.sections {
		frame = binary.LittleEndian.AppendUint32(frame[:0], uint32(len(s.name)))
		frame = append(frame, s.name...)
		frame = binary.LittleEndian.AppendUint64(frame, uint64(len(s.buf)))
		cw.write(frame)
		cw.write(s.buf)
	}
	cw.write(binary.LittleEndian.AppendUint32(frame[:0], cw.crc))
	return cw.n, cw.err
}

// crcWriter forwards writes to w, checksumming what it forwards, with a
// sticky error.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
	err error
}

func (cw *crcWriter) write(p []byte) {
	if cw.err != nil {
		return
	}
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p)
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	cw.err = err
}

// W is a section payload writer. All integers are little-endian fixed width.
type W struct {
	name string
	buf  []byte
}

func (w *W) U64(v uint64) *W  { w.buf = binary.LittleEndian.AppendUint64(w.buf, v); return w }
func (w *W) I64(v int64) *W   { return w.U64(uint64(v)) }
func (w *W) U32(v uint32) *W  { w.buf = binary.LittleEndian.AppendUint32(w.buf, v); return w }
func (w *W) U8(v uint8) *W    { w.buf = append(w.buf, v); return w }
func (w *W) F64(v float64) *W { return w.U64(math.Float64bits(v)) }
func (w *W) Len(n int) *W     { return w.U32(uint32(n)) }

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
	w.buf = append(w.buf, s...)
	return w
}

// I64s writes a length-prefixed slice of int64.
func (w *W) I64s(vs []int64) *W {
	w.Grow(4 + 8*len(vs))
	w.Len(len(vs))
	for _, v := range vs {
		w.I64(v)
	}
	return w
}

// Grow makes room for n more payload bytes, so that a codec that knows its
// encoded size writes it without the payload regrowing part-way.
func (w *W) Grow(n int) { w.buf = slices.Grow(w.buf, n) }

// Reserve appends n bytes to the payload and returns them for the caller to
// fill in place, so a codec that knows a block's encoded size writes it with
// one grow instead of one append per field. The returned bytes hold
// unspecified values until the caller fills them, and it must fill them all.
func (w *W) Reserve(n int) []byte {
	w.Grow(n)
	start := len(w.buf)
	w.buf = w.buf[:start+n]
	return w.buf[start:]
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
	var data []byte
	var err error
	if l, ok := r.(interface{ Len() int }); ok {
		// bytes.Reader and kin know how much is left: read it in one go
		// instead of regrowing a buffer to fit.
		data = make([]byte, min(l.Len(), maxSectionBytes))
		_, err = io.ReadFull(r, data)
	} else {
		data, err = io.ReadAll(io.LimitReader(r, maxSectionBytes))
	}
	if err != nil {
		return nil, fmt.Errorf("snapshot: read: %w", err)
	}
	return Decode(data)
}

// Decode decodes a snapshot container from a byte slice. The section
// payloads alias data rather than copy it, so the caller must leave data
// unmodified while it restores from the Snapshot.
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
		end := off + int(plen)
		payload := body[off:end:end]
		off = end
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
		if err == r.Err() { // the reader's own error names the section
			return err
		}
		return fmt.Errorf("snapshot: section %q: %w", name, err)
	}
	if err := r.Err(); err != nil {
		return err
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
	return &R{name: name, data: s.payloads[i], buf: s.payloads[i]}, nil
}

// WriteTo re-encodes the snapshot (used by the round-trip fuzzer to check
// decode→encode→decode stability).
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	b := &Builder{sections: make([]*W, len(s.names))}
	for i, name := range s.names {
		b.sections[i] = &W{name: name, buf: s.payloads[i]}
	}
	return b.WriteTo(w)
}

// R is a section payload cursor with a sticky error: after the first
// out-of-bounds read every further read returns zero values, and Err reports
// the failure once at the end.
//
// The fixed-width reads inline into the codecs' loops (a checkpoint restore
// makes millions of them), so each is a bounds check and a load. A read past
// the end only records what it was reading and cuts buf back to the
// offset, which makes every later read fail the same bounds check; Err
// formats the error from that record, out of line.
type R struct {
	name string
	data []byte // the whole payload
	buf  []byte // data, cut back to off by the first failed read
	off  int
	err  error
	// short names what the first read past the end was reading; min is
	// the element size of a count that failed Len's bound.
	short string
	min   int
}

// stop records a read of what past the end, unless an earlier one failed,
// and ends reading at the current offset.
func (r *R) stop(what string, min int) {
	if r.short == "" && r.err == nil {
		r.short, r.min = what, min
	}
	r.buf = r.buf[:r.off]
}

// truncated builds the error for the read stop recorded.
//
//go:noinline
func (r *R) truncated() error {
	what, off := r.short, r.off
	if what == "length" {
		// Len failed on a count, or on reading one.
		rest := r.data[off:]
		if len(rest) < 4 {
			what = "u32"
		} else {
			off += 4
			what = fmt.Sprintf("length %d (× %dB exceeds %dB remaining)",
				binary.LittleEndian.Uint32(rest), r.min, len(rest)-4)
		}
	}
	return fmt.Errorf("snapshot: section %q: truncated reading %s at offset %d", r.name, what, off)
}

// Fail records err as the reader's sticky error, naming the section, unless
// an earlier read already failed. Decoders use it for records that are well
// formed but could not have been written (sim.ErrEventRecord).
func (r *R) Fail(err error) {
	if r.Err() == nil {
		r.err = fmt.Errorf("snapshot: section %q: %w", r.name, err)
	}
	r.buf = r.buf[:r.off]
}

// Err returns the first read error, if any.
func (r *R) Err() error {
	if r.err == nil && r.short != "" {
		r.err = r.truncated()
	}
	return r.err
}

// Remaining returns the number of unread payload bytes.
func (r *R) Remaining() int { return len(r.buf) - r.off }

func (r *R) U64() uint64 {
	if b := r.buf[r.off:]; len(b) >= 8 {
		r.off += 8
		return binary.LittleEndian.Uint64(b)
	}
	r.stop("u64", 0)
	return 0
}

func (r *R) I64() int64   { return int64(r.U64()) }
func (r *R) F64() float64 { return math.Float64frombits(r.U64()) }

func (r *R) U32() uint32 {
	if b := r.buf[r.off:]; len(b) >= 4 {
		r.off += 4
		return binary.LittleEndian.Uint32(b)
	}
	r.stop("u32", 0)
	return 0
}

// SkipZeroU32s reads past the zero u32 values that come next, at most limit
// of them, eight bytes at a time, and returns how many it read. It stops at
// the first non-zero value or short read and leaves that to the caller, so
// a codec whose counts are mostly zero reads only the others one by one.
func (r *R) SkipZeroU32s(limit int) int {
	b := r.buf[r.off:]
	n := 0
	for limit-n >= 2 && len(b) >= 8 && binary.LittleEndian.Uint64(b) == 0 {
		b = b[8:]
		n += 2
	}
	if n < limit && len(b) >= 4 && binary.LittleEndian.Uint32(b) == 0 {
		n++
	}
	r.off += 4 * n
	return n
}

func (r *R) U8() uint8 {
	if r.off < len(r.buf) {
		r.off++
		return r.buf[r.off-1]
	}
	r.stop("u8", 0)
	return 0
}

// Bool reads a byte written by W.Bool. Any byte other than 0 or 1 is an
// error, so each state has one encoding.
func (r *R) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.Fail(fmt.Errorf("bool byte %d at offset %d", v, r.off-1))
	}
	return v == 1
}

// Len reads a count written by W.Len and bounds it against the remaining
// payload assuming at least minElemBytes (which must be at least 1) per
// element, so hostile counts fail before any allocation.
func (r *R) Len(minElemBytes int) int {
	if b := r.buf[r.off:]; len(b) >= 4 {
		if n := int(binary.LittleEndian.Uint32(b)); n*minElemBytes <= len(b)-4 {
			r.off += 4
			return n
		}
	}
	r.stop("length", minElemBytes)
	return 0
}

func (r *R) String() string { return string(r.StringBytes()) }

// StringBytes reads a string written by W.String without copying it: the
// result aliases the payload, and comparing it with a string allocates
// nothing.
func (r *R) StringBytes() []byte {
	n := int(r.U32())
	if r.Err() != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.stop("string", 0)
		return nil
	}
	v := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

// I64s reads a slice written by W.I64s.
func (r *R) I64s() []int64 {
	n := r.Len(8)
	if n == 0 {
		return nil
	}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = r.I64()
	}
	return vs
}
