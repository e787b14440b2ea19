package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// scanAccess is Access by scanning the set's ways, as single-set
// caches did before they kept an index: the reference the index is
// checked against.
func scanAccess(c *Cache, addr uint64) bool {
	c.stats.Accesses++
	c.clock++
	_, hit := scanProbe(c, addr>>c.blockBits)
	if !hit {
		c.stats.Misses++
	}
	return hit
}

// scanProbe is the scan behind scanAccess: a hit marks its line used,
// a miss fills the set's lowest invalid way, else its smallest stamp.
// It returns the line's index.
func scanProbe(c *Cache, block uint64) (int, bool) {
	base := int(block&c.setMask) * c.ways
	set := c.lines[base : base+c.ways]
	for w := range set {
		if ln := &set[w]; ln.meta != 0 && ln.tag == block {
			ln.meta = c.clock
			return base + w, true
		}
	}
	return base + fill(set, block, c.clock), false
}

// scanFind returns the way of a single-set cache holding addr's
// block, by scanning, or -1.
func scanFind(c *Cache, addr uint64) int {
	block := addr >> c.blockBits
	for w, ln := range c.lines {
		if ln.meta != 0 && ln.tag == block {
			return w
		}
	}
	return -1
}

// scanLookup is Lookup by scanning.
func scanLookup(c *Cache, addr uint64) int {
	c.clock++
	w := scanFind(c, addr)
	if w >= 0 {
		c.lines[w].meta = c.clock
	}
	return w
}

// checkAssocOps runs one operation per two bytes of ops on a
// single-set cache of the given ways and on its scan
// reference, the first byte picking the operation and the second the
// address; it fails at the first result, line or field that differs,
// or at an index that disagrees with a rebuild from the lines.
func checkAssocOps(t *testing.T, ways int, ops []byte) {
	t.Helper()
	cfg := Config{SizeBytes: ways * 16, Assoc: FullyAssociative, BlockBytes: 16}
	got, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Tags come from a pool twice the capacity, so hits, misses and
	// evictions all happen.
	addr := func(b byte) uint64 { return uint64(int(b)%(2*ways)) << 4 }
	for k := 0; k+1 < len(ops); k += 2 {
		op, a := ops[k], addr(ops[k+1])
		var what string
		// A lap covers 1 to 3*ways lines from a, as PrewarmCode lays
		// one on an emptied TLB or L1 and PrewarmData on the L2.
		end := a + ((uint64(op)<<8|uint64(ops[k+1]))%uint64(3*ways)+1)<<4
		switch op % 32 {
		case 0:
			what = "Flush"
			got.Flush()
			ref.Flush()
		case 1:
			what = fmt.Sprintf("lap [%#x, %#x)", a, end)
			got.lap(a, end, got.blockBits)
			ref.lap(a, end, ref.blockBits)
		case 2:
			what = fmt.Sprintf("lapInPlace [%#x, %#x)", a, end)
			got.lapInPlace(a, end, lapShift(got.blockBits))
			ref.lapInPlace(a, end, lapShift(ref.blockBits))
		case 3:
			what = fmt.Sprintf("Contains(%#x)", a)
			if x, y := got.Contains(a), scanFind(ref, a) >= 0; x != y {
				t.Fatalf("op %d %s = %v, scan %v", k/2, what, x, y)
			}
		case 4:
			what = fmt.Sprintf("Lookup(%#x)", a)
			if x, y := got.Lookup(a), scanLookup(ref, a); x != y {
				t.Fatalf("op %d %s = %d, scan %d", k/2, what, x, y)
			}
		case 5:
			what = fmt.Sprintf("Insert(%#x)", a)
			ref.clock++
			y, _ := scanProbe(ref, a>>4)
			if x := got.Insert(a); x != y {
				t.Fatalf("op %d %s = %d, scan %d", k/2, what, x, y)
			}
		case 6:
			// A run of 1 to 8 accesses to one block.
			n := uint64(ops[k+1]%8) + 1
			what = fmt.Sprintf("AccessRun(%#x, %d)", a, n)
			y := scanAccess(ref, a)
			for i := uint64(1); i < n; i++ {
				scanAccess(ref, a)
			}
			if x := got.AccessRun(a, n); x != y {
				t.Fatalf("op %d %s = %v, scan %v", k/2, what, x, y)
			}
		default:
			what = fmt.Sprintf("Access(%#x)", a)
			if x, y := got.Access(a), scanAccess(ref, a); x != y {
				t.Fatalf("op %d %s = %v, scan %v", k/2, what, x, y)
			}
		}
		if d := checkIndex(got); d != "" {
			t.Fatalf("op %d %s: index: %s", k/2, what, d)
		}
		// The scans leave the reference's own index stale; the laps
		// read it, so it is rebuilt from the lines.
		ref.fa.rebuild(ref.lines)
		if d := diffCache(got, ref); d != "" {
			t.Fatalf("op %d %s: %s", k/2, what, d)
		}
	}
}

// TestFullyAssociativeMatchesScan: GIVEN single-set caches of 1 to 512
// ways, WHEN random streams of accesses, lookups, inserts, runs and
// probes run through them, interleaved with laps, in-place laps and
// flushes, THEN every result and every line, stamp and counter matches
// the scan of every way, and the index always agrees with a rebuild
// from the lines.
func TestFullyAssociativeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, ways := range []int{1, 2, 3, 8, 9, 64, 256, 512} {
		ops := make([]byte, 3000)
		rng.Read(ops)
		// Mostly accesses: a flush or lap about one op in ten.
		checkAssocOps(t, ways, ops)
	}
}

// FuzzFullyAssociative drives checkAssocOps with arbitrary operation
// streams: the first byte picks the ways.
func FuzzFullyAssociative(f *testing.F) {
	f.Add([]byte{0x11, 9, 1, 8, 2, 7, 3, 6, 4, 5, 5, 4, 6, 3, 7, 2, 0, 1})
	f.Add([]byte{0x42, 1, 3, 8, 9, 8, 10, 8, 11, 4, 2, 6, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ways := []int{1, 2, 3, 4, 7, 16, 33, 256}[data[0]%8]
		checkAssocOps(t, ways, data[1:])
	})
}
