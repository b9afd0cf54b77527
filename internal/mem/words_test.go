package mem

import (
	"math/rand"
	"testing"
)

// collidingAddrs returns n addresses whose hashes share their top 40 bits,
// so they start probing at the same slot in every table of up to 2^40
// slots: a = y·hashMul⁻¹ (mod 2^64) hashes to y itself.
func collidingAddrs(n int) []int64 {
	inv := uint64(hashMul) // Newton's iteration for the inverse mod 2^64
	for i := 0; i < 6; i++ {
		inv *= 2 - hashMul*inv
	}
	out := make([]int64, n)
	for y := range out {
		out[y] = int64(uint64(y+1) * inv)
	}
	return out
}

// TestWordTableMatchesMap runs 10^5 random reads and writes against a Go
// map: small aligned and unaligned addresses, negative ones, address 0,
// zero values, and a pool of addresses that all hash to one slot.
func TestWordTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	colliding := collidingAddrs(200)
	big := Table[int64]{shift: 64 - 20} // home() of a 2^20-slot table
	for _, a := range colliding {
		if big.home(a) != 0 {
			t.Fatalf("colliding address %#x starts at slot %d, want 0", a, big.home(a))
		}
	}
	pick := func() int64 {
		switch rng.Intn(5) {
		case 0:
			return colliding[rng.Intn(len(colliding))]
		case 1:
			return int64(rng.Intn(64)) - 32 // 0, negatives, unaligned
		case 2:
			return int64(rng.Intn(4096)) * 8
		case 3:
			return int64(rng.Intn(4096))*8 + int64(rng.Intn(8))
		}
		return int64(rng.Uint64())
	}
	tb := NewTable[int64](0)
	ref := map[int64]int64{}
	for op := 0; op < 100000; op++ {
		a := pick()
		if rng.Intn(2) == 0 {
			v := int64(rng.Intn(3)) - 1 // zeros are words too
			if rng.Intn(4) == 0 {
				v = int64(rng.Uint64())
			}
			tb.Set(a, v)
			ref[a] = v
		} else if got, want := tb.Get(a), ref[a]; got != want {
			t.Fatalf("op %d: get(%#x) = %d, want %d", op, a, got, want)
		}
		if op%10000 == 0 && tb.Len() != len(ref) {
			t.Fatalf("op %d: len %d, want %d", op, tb.Len(), len(ref))
		}
	}
	words := tb.Sorted()
	if len(words) != len(ref) {
		t.Fatalf("sorted() has %d words, want %d", len(words), len(ref))
	}
	for i, w := range words {
		if i > 0 && w.Addr <= words[i-1].Addr {
			t.Fatalf("sorted() out of order at %d: %#x after %#x", i, w.Addr, words[i-1].Addr)
		}
		if v, ok := ref[w.Addr]; !ok || v != w.Val {
			t.Fatalf("sorted() word %#x = %d, map has %d (present %v)", w.Addr, w.Val, v, ok)
		}
	}
	if n := len(tb.slots); n < 16 || n&(n-1) != 0 || tb.used*4 > n*3 {
		t.Fatalf("table of %d slots holds %d words", n, tb.used)
	}
}

// TestNewWordTablePresized: a table built for n words holds them without
// growing, which is what RestoreState relies on.
func TestNewWordTablePresized(t *testing.T) {
	for _, n := range []int{0, 1, 12, 13, 1000} {
		tb := NewTable[int64](n)
		size := len(tb.slots)
		for i := 1; i <= n; i++ {
			tb.Set(int64(i)*8, 1)
		}
		if len(tb.slots) != size {
			t.Errorf("NewTable(%d): grew from %d to %d slots", n, size, len(tb.slots))
		}
	}
}

// TestMemoryReadWriteAllocFree: reading or writing a word that is already
// present allocates nothing.
func TestMemoryReadWriteAllocFree(t *testing.T) {
	m := NewMemory()
	for a := int64(0); a < 1000; a++ {
		m.Write(a*8, a, SrcCPU)
	}
	var sink int64
	if n := testing.AllocsPerRun(1000, func() { sink += m.Read(4000) }); n != 0 {
		t.Errorf("Read allocates %v per call", n)
	}
	if n := testing.AllocsPerRun(1000, func() { m.Write(4000, sink, SrcCPU) }); n != 0 {
		t.Errorf("Write allocates %v per call", n)
	}
}
