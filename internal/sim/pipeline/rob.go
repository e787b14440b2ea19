package pipeline

import (
	"fmt"
	"math"

	"pbsim/internal/trace"
)

// NotReady is the ReadyAt sentinel of a dispatched but not yet
// executed instruction.
const NotReady = math.MaxInt64

// Entry is one reorder-buffer slot: the per-run state of an
// instruction in flight. The instruction itself stays where fetch put
// it, and the simulator reaches it by Seq.
type Entry struct {
	// Seq is the instruction's position in the dynamic stream.
	Seq int64
	// ReadyAt is the cycle at which the result is available to
	// dependents and the instruction may commit; NotReady until known.
	ReadyAt int64
	// OpsAt is the cycle from which both source operands are
	// available. It is exact while the entry is a candidate; before
	// that it covers only the producers that had already issued.
	OpsAt int64

	// slot is the entry's index in the buffer.
	slot int32
	// waiters heads the list of consumers waiting for this entry to
	// issue. A link encodes a consumer slot and one of its operands as
	// slot*2+operand; -1 ends the list.
	waiters int32
	// next continues the waiter lists this entry is on, one link per
	// operand it awaits.
	next [2]int32
	// pending counts the producers this entry still awaits.
	pending uint8

	// Class is the instruction's class.
	Class trace.Class

	// Issued marks that the instruction has been sent to a functional
	// unit (or bypassed one via precomputation).
	Issued bool
	// Mispredict marks a control instruction whose prediction was
	// wrong; fetch resumes ReadyAt + penalty cycles after it executes.
	Mispredict bool
	// Precomputed marks an instruction satisfied by the precomputation
	// or value-reuse table instead of a functional unit.
	Precomputed bool
}

// ROB is a bounded in-order circular buffer of in-flight instructions.
//
// It also keeps the issue candidates: the dispatched, unissued entries
// whose producers have all issued, as a bitset over slots. An entry
// whose producer has not issued waits on that producer's waiter list
// instead, and joins the set when its last producer issues, so the
// issue stage visits only entries with a known operand-ready cycle.
type ROB struct {
	entries []Entry
	// cand holds bit s&63 of word s>>6 for each candidate slot s.
	cand  []uint64
	head  int
	count int
}

// NewROB creates a reorder buffer with the given capacity.
func NewROB(capacity int) (*ROB, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("pipeline: ROB capacity %d invalid", capacity)
	}
	return &ROB{
		entries: make([]Entry, capacity),
		cand:    make([]uint64, (capacity+63)/64),
	}, nil
}

// Capacity returns the configured size.
func (r *ROB) Capacity() int { return len(r.entries) }

// Len returns the current occupancy.
func (r *ROB) Len() int { return r.count }

// Full reports whether no slot is free.
func (r *ROB) Full() bool { return r.count == len(r.entries) }

// Empty reports whether the buffer holds no instructions.
func (r *ROB) Empty() bool { return r.count == 0 }

// Push allocates the tail entry and returns it for initialization. It
// must not be called on a full buffer. The entry is not a candidate
// until Arm.
//
//pbcheck:hotpath
func (r *ROB) Push() *Entry {
	if r.Full() {
		panic("pipeline: Push on full ROB") //pbcheck:ignore nopanic guards a programmer error (caller must check Full); never reachable from row data
	}
	// head+count < 2*len always holds, so a conditional wrap replaces
	// the modulo in this per-dispatch path.
	idx := r.head + r.count
	if idx >= len(r.entries) {
		idx -= len(r.entries)
	}
	r.count++
	e := &r.entries[idx]
	*e = Entry{ReadyAt: NotReady, slot: int32(idx), waiters: -1}
	return e
}

// Head returns the oldest entry, or nil when empty.
//
//pbcheck:hotpath
func (r *ROB) Head() *Entry {
	if r.count == 0 {
		return nil
	}
	return &r.entries[r.head]
}

// PopHead retires the oldest entry. It must not be called on an empty
// buffer.
//
//pbcheck:hotpath
func (r *ROB) PopHead() {
	if r.count == 0 {
		panic("pipeline: PopHead on empty ROB") //pbcheck:ignore nopanic guards a programmer error (caller must check Empty); never reachable from row data
	}
	r.head++
	if r.head == len(r.entries) {
		r.head = 0
	}
	r.count--
}

// At returns the i-th oldest entry (0 = head). The pointer is valid
// until the entry is popped. It is for tests and diagnostics: the
// simulator reaches entries by slot (the guard below formats its
// panic, which allocates).
func (r *ROB) At(i int) *Entry {
	if i < 0 || i >= r.count {
		//pbcheck:ignore nopanic index invariant guards a programmer error, like a slice bounds check; never reachable from row data
		panic(fmt.Sprintf("pipeline: ROB index %d out of range [0,%d)", i, r.count))
	}
	idx := r.head + i
	if idx >= len(r.entries) {
		idx -= len(r.entries)
	}
	return &r.entries[idx]
}

// Slot returns the entry in buffer slot s, as the candidate walks
// yield it.
//
//pbcheck:hotpath
func (r *ROB) Slot(s int) *Entry { return &r.entries[s] }

// Await records that e, the entry being dispatched, reads the result
// of the entry dist places older, which is in the buffer and has not
// issued. Call it once for each of e's (at most two) producers, before
// Arm.
//
//pbcheck:hotpath
func (r *ROB) Await(e *Entry, dist int32) {
	p := e.slot - dist // the producer is in the buffer, so dist < len
	if p < 0 {
		p += int32(len(r.entries))
	}
	prod := &r.entries[p]
	e.next[e.pending] = prod.waiters
	prod.waiters = e.slot*2 + int32(e.pending)
	e.pending++
}

// Arm finishes dispatching e: at is the cycle from which the operands
// it awaits no producer for are available. e becomes a candidate now
// if it awaits none, else when its last producer issues.
//
//pbcheck:hotpath
func (r *ROB) Arm(e *Entry, at int64) {
	e.OpsAt = at
	if e.pending == 0 {
		r.cand[e.slot>>6] |= 1 << (e.slot & 63)
	}
}

// Issue marks the candidate in slot s issued, with its result ready
// at cycle ready, and removes it from the candidate set. Each waiter
// learns the ready cycle, and one that awaits no other producer
// becomes a candidate.
//
//pbcheck:hotpath
func (r *ROB) Issue(s int, ready int64) {
	e := &r.entries[s]
	e.Issued = true
	e.ReadyAt = ready
	r.cand[s>>6] &^= 1 << (s & 63)
	for link := e.waiters; link >= 0; {
		w := &r.entries[link>>1]
		link = w.next[link&1]
		r.wake(w, ready)
	}
	e.waiters = -1
}

// wake delivers a producer's ready cycle to the waiting entry w.
//
//pbcheck:hotpath
func (r *ROB) wake(w *Entry, ready int64) {
	w.OpsAt = max(w.OpsAt, ready)
	w.pending--
	if w.pending == 0 {
		r.cand[w.slot>>6] |= 1 << (w.slot & 63)
	}
}

// AgeWords returns the number of steps of the oldest-first candidate
// walk: one per bitset word, plus one because the head's word is
// visited twice.
//
//pbcheck:hotpath
func (r *ROB) AgeWords() int { return len(r.cand) + 1 }

// AgeWord returns step k of the oldest-first candidate walk, for k in
// [0, AgeWords()): the slot of a bitset word's bit 0 and the word's
// candidates that the step visits. The steps visit slots [head, cap),
// then [0, head), each word's slots in increasing order:
//
//	for k, n := 0, rob.AgeWords(); k < n; k++ {
//		base, word := rob.AgeWord(k)
//		for ; word != 0; word &= word - 1 {
//			s := base + bits.TrailingZeros64(word)
//			...
//		}
//	}
//
// A step reads its word when the walk reaches it, so a candidate
// added behind the walk's position is not visited and one added ahead
// of it may be.
//
//pbcheck:hotpath
func (r *ROB) AgeWord(k int) (base int, word uint64) {
	n := len(r.cand)
	i := r.head>>6 + k
	if i >= n {
		i -= n
	}
	below := uint64(1)<<(r.head&63) - 1
	word = r.cand[i]
	switch k {
	case 0:
		word &^= below
	case n:
		word &= below
	}
	return i << 6, word
}

// LSQ tracks load-store queue occupancy. Entries are allocated at
// dispatch and released at commit; the timing of the accesses
// themselves is handled by the memory hierarchy.
type LSQ struct {
	capacity int
	used     int
}

// NewLSQ creates a load-store queue with the given capacity.
func NewLSQ(capacity int) (*LSQ, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("pipeline: LSQ capacity %d invalid", capacity)
	}
	return &LSQ{capacity: capacity}, nil
}

// Capacity returns the configured size.
func (q *LSQ) Capacity() int { return q.capacity }

// Len returns current occupancy.
func (q *LSQ) Len() int { return q.used }

// Full reports whether no slot is free.
func (q *LSQ) Full() bool { return q.used == q.capacity }

// Alloc takes one slot; it reports false when full.
//
//pbcheck:hotpath
func (q *LSQ) Alloc() bool {
	if q.Full() {
		return false
	}
	q.used++
	return true
}

// Release frees one slot.
//
//pbcheck:hotpath
func (q *LSQ) Release() {
	if q.used == 0 {
		panic("pipeline: Release on empty LSQ") //pbcheck:ignore nopanic guards a programmer error (release without matching allocate); never reachable from row data
	}
	q.used--
}
