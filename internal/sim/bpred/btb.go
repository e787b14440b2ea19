package bpred

import (
	"fmt"

	"pbsim/internal/sim/cache"
)

// BTB is a set-associative branch target buffer mapping branch PCs to
// their most recent taken targets (Table 6: entries, associativity).
// Its tags are a cache.Cache of 4-byte blocks, one per instruction, so
// a branch's key is pc>>2, replaced LRU; a fully-associative BTB thus
// looks its tags up in O(1). targets holds each line's target.
type BTB struct {
	tags    *cache.Cache
	targets []uint64
}

// FullyAssociative requests a single set covering all entries.
const FullyAssociative = cache.FullyAssociative

// NewBTB builds a BTB with the given entry count and associativity
// (clamped to the entry count); the set count must be a power of two.
func NewBTB(entries, assoc int) (*BTB, error) {
	tags, err := cache.New(cache.Config{SizeBytes: entries * 4, Assoc: assoc, BlockBytes: 4})
	if err != nil {
		return nil, fmt.Errorf("bpred: BTB of %d entries, associativity %d: %w", entries, assoc, err)
	}
	return &BTB{tags: tags, targets: make([]uint64, entries)}, nil
}

// Sets returns the number of sets; Ways the associativity.
func (b *BTB) Sets() int { return b.tags.Sets() }

// Ways returns the associativity.
func (b *BTB) Ways() int { return b.tags.Ways() }

// Lookup returns the predicted target for the branch at pc and whether
// the BTB held an entry for it.
//
//pbcheck:hotpath
func (b *BTB) Lookup(pc uint64) (uint64, bool) {
	if i := b.tags.Lookup(pc); i >= 0 {
		return b.targets[i], true
	}
	return 0, false
}

// Insert records the taken target of the branch at pc, evicting the
// LRU entry of the set if necessary.
//
//pbcheck:hotpath
func (b *BTB) Insert(pc, target uint64) {
	b.targets[b.tags.Insert(pc)] = target
}

// RAS is a return address stack of fixed depth. Pushes beyond the
// depth overwrite the oldest entry (circular), as in real hardware.
type RAS struct {
	stack []uint64
	top   int
	count int
	// stats
	pops, underflows uint64
}

// NewRAS builds a return address stack with the given entry count.
func NewRAS(entries int) (*RAS, error) {
	if entries <= 0 {
		return nil, fmt.Errorf("bpred: RAS entries %d invalid", entries)
	}
	return &RAS{stack: make([]uint64, entries)}, nil
}

// Push records a return address at a call.
//
//pbcheck:hotpath
func (r *RAS) Push(addr uint64) {
	r.stack[r.top] = addr
	r.top = (r.top + 1) % len(r.stack)
	if r.count < len(r.stack) {
		r.count++
	}
}

// Pop predicts the target of a return. ok is false when the stack is
// empty (an unconditional misprediction).
//
//pbcheck:hotpath
func (r *RAS) Pop() (addr uint64, ok bool) {
	r.pops++
	if r.count == 0 {
		r.underflows++
		return 0, false
	}
	r.top = (r.top - 1 + len(r.stack)) % len(r.stack)
	r.count--
	return r.stack[r.top], true
}

// Capacity returns the configured entry count.
func (r *RAS) Capacity() int { return len(r.stack) }
