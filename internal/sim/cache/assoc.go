package cache

// assocIndex is the lookup structure of a single-set (fully
// associative) cache: a tag→way table and a recency list over the
// valid ways, so that a probe and a fill cost O(1) instead of a scan
// of every way. It is derived from the line array, which stays the
// state: a fill still takes the lowest invalid way, else the smallest
// stamp, so the lines come out way by way as the scan left them.
// Writers that change lines wholesale (Flush, the prewarm laps) call
// rebuild afterwards.
type assocIndex struct {
	// slots is an open-addressing (linear probing) table of way+1 by
	// tag, 0 marking an empty slot; its length is a power of two, at
	// least twice the ways, and shift maps a hash onto it.
	slots []int32
	shift uint
	// prev and next link the valid ways in ascending stamp order, the
	// least recent (the LRU victim) at head; -1 ends the list.
	prev, next []int32
	head, tail int32
	// free holds the invalid ways, highest first, so a fill pops the
	// lowest from its end. Lines are only invalidated wholesale, so it
	// only shrinks between rebuilds.
	free []int32
	// buf backs every slice above and is recycled with the lines.
	buf []int32
}

// assocBufLen returns the index array length for a single set of ways.
func assocBufLen(ways int) (slots, total int) {
	slots = 2
	for slots < 2*ways {
		slots *= 2
	}
	return slots, slots + 3*ways
}

// newAssocIndex builds the index of an empty set of ways, carving its
// arrays from spare when its capacity holds them.
func newAssocIndex(ways int, spare []int32) assocIndex {
	slots, total := assocBufLen(ways)
	buf := spare[:0]
	if cap(buf) >= total {
		buf = buf[:total]
	} else {
		buf = make([]int32, total)
	}
	shift := uint(64)
	for s := slots; s > 1; s >>= 1 {
		shift--
	}
	return assocIndex{
		slots: buf[:slots:slots],
		shift: shift,
		prev:  buf[slots : slots+ways : slots+ways],
		next:  buf[slots+ways : slots+2*ways : slots+2*ways],
		free:  buf[slots+2*ways : total : total],
		buf:   buf,
	}
}

// hash returns the home slot of a tag.
//
//pbcheck:hotpath
func (x *assocIndex) hash(tag uint64) int {
	return int(tag * 0x9e3779b97f4a7c15 >> x.shift)
}

// find returns the way holding tag, or -1.
//
//pbcheck:hotpath
func (x *assocIndex) find(lines []line, tag uint64) int {
	mask := len(x.slots) - 1
	for i := x.hash(tag); ; i = (i + 1) & mask {
		s := x.slots[i]
		if s == 0 {
			return -1
		}
		if lines[s-1].tag == tag {
			return int(s - 1)
		}
	}
}

// add enters the freshly written valid way w in the table and at the
// tail of the recency list: its stamp is the newest.
//
//pbcheck:hotpath
func (x *assocIndex) add(lines []line, w int) {
	mask := len(x.slots) - 1
	i := x.hash(lines[w].tag)
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = int32(w + 1)
	x.push(int32(w))
}

// evict removes the valid way w, about to be overwritten, from the
// table (by backward-shift deletion, so no probe chain breaks) and
// from the recency list.
//
//pbcheck:hotpath
func (x *assocIndex) evict(lines []line, w int) {
	mask := len(x.slots) - 1
	i := x.hash(lines[w].tag)
	for x.slots[i] != int32(w+1) {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; x.slots[j] != 0; j = (j + 1) & mask {
		// The entry at j may move back to the hole at i unless its
		// home lies cyclically in (i, j].
		home := x.hash(lines[x.slots[j]-1].tag)
		if (j-home)&mask < (j-i)&mask {
			continue
		}
		x.slots[i] = x.slots[j]
		i = j
	}
	x.slots[i] = 0
	x.unlink(int32(w))
}

// touch moves way w, just stamped as the newest, to the list's tail.
//
//pbcheck:hotpath
func (x *assocIndex) touch(w int) {
	if int32(w) != x.tail {
		x.unlink(int32(w))
		x.push(int32(w))
	}
}

//pbcheck:hotpath
func (x *assocIndex) unlink(w int32) {
	p, n := x.prev[w], x.next[w]
	if p >= 0 {
		x.next[p] = n
	} else {
		x.head = n
	}
	if n >= 0 {
		x.prev[n] = p
	} else {
		x.tail = p
	}
}

//pbcheck:hotpath
func (x *assocIndex) push(w int32) {
	x.prev[w], x.next[w] = x.tail, -1
	if x.tail >= 0 {
		x.next[x.tail] = w
	} else {
		x.head = w
	}
	x.tail = w
}

// rebuild derives the index from the line array: the table of the
// valid ways, the list in ascending (stamp, way) order and the invalid
// ways. It allocates nothing.
//
//pbcheck:hotpath
func (x *assocIndex) rebuild(lines []line) {
	clear(x.slots)
	x.head, x.tail = -1, -1
	order := x.free[:0]
	for w := range lines {
		if lines[w].meta != 0 {
			order = append(order, int32(w))
		}
	}
	sortByStamp(order, lines)
	for _, w := range order {
		x.add(lines, int(w))
	}
	x.free = x.free[:0]
	for w := len(lines) - 1; w >= 0; w-- {
		if lines[w].meta == 0 {
			x.free = append(x.free, int32(w))
		}
	}
}

// sortByStamp heap-sorts ways into ascending (stamp, way) order.
//
//pbcheck:hotpath
func sortByStamp(ways []int32, lines []line) {
	for i := len(ways)/2 - 1; i >= 0; i-- {
		siftDown(ways, lines, i, len(ways))
	}
	for end := len(ways) - 1; end > 0; end-- {
		ways[0], ways[end] = ways[end], ways[0]
		siftDown(ways, lines, 0, end)
	}
}

// siftDown restores the max-heap order of ways[:n] below root.
//
//pbcheck:hotpath
func siftDown(ways []int32, lines []line, root, n int) {
	for {
		child := 2*root + 1
		if child >= n {
			return
		}
		if child+1 < n && stampLess(lines, ways[child], ways[child+1]) {
			child++
		}
		if !stampLess(lines, ways[root], ways[child]) {
			return
		}
		ways[root], ways[child] = ways[child], ways[root]
		root = child
	}
}

// stampLess orders ways by (stamp, way).
//
//pbcheck:hotpath
func stampLess(lines []line, a, b int32) bool {
	return lines[a].meta < lines[b].meta || lines[a].meta == lines[b].meta && a < b
}
