// Package enhance implements the microarchitectural enhancement the
// paper analyzes in Section 4.3 -- instruction precomputation [Yi02-1]
// -- together with the dynamic value-reuse mechanism [Sodani97] it is
// contrasted against.
//
// Instruction precomputation profiles the program offline, loads the
// highest-frequency redundant computations into an on-chip table
// before execution begins, and never updates the table. Value reuse
// maintains its table dynamically, updating it with the most recent
// computations. Both expose the sim.ComputeShortcut behaviour: a table
// hit lets the pipeline skip execution of the instruction. A Spec
// names either as data; Spec.Shortcuts builds its per-run tables.
package enhance

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"pbsim/internal/sim"
	"pbsim/internal/trace"
)

// The mechanisms a Spec can name.
const (
	MechPrecompute = "precompute" // static table of profiled computations
	MechValueReuse = "valuereuse" // dynamic LRU reuse table
)

// Spec is an enhancement as data: a mechanism and its table size. The
// zero value is the unenhanced processor.
type Spec struct {
	Mechanism string
	TableSize int
}

// String is the canonical form: "base" for the zero value, else
// "<mechanism>-<table>" (for example "precompute-128").
func (s Spec) String() string {
	if s == (Spec{}) {
		return "base"
	}
	return fmt.Sprintf("%s-%d", s.Mechanism, s.TableSize)
}

// ParseSpec is String's inverse. It rejects any text that is not the
// canonical form of a valid Spec.
func ParseSpec(text string) (Spec, error) {
	if text == "base" {
		return Spec{}, nil
	}
	mech, size, _ := strings.Cut(text, "-")
	n, err := strconv.Atoi(size)
	s := Spec{Mechanism: mech, TableSize: n}
	if err != nil || s.String() != text {
		return Spec{}, fmt.Errorf("enhance: spec %q is neither base nor <mechanism>-<table>", text)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Validate rejects an unknown mechanism or a table of fewer than one
// entry. The zero value is valid.
func (s Spec) Validate() error {
	switch {
	case s == (Spec{}):
		return nil
	case s.Mechanism != MechPrecompute && s.Mechanism != MechValueReuse:
		return fmt.Errorf("enhance: unknown mechanism %q (want %s or %s)", s.Mechanism, MechPrecompute, MechValueReuse)
	case s.TableSize < 1:
		return fmt.Errorf("enhance: table size %d invalid", s.TableSize)
	}
	return nil
}

// Shortcuts returns the constructor of s's shortcuts for runs of the
// workload with the given params that commit n instructions. Runs
// execute concurrently and a table's state is per run, so every call
// builds a fresh table; precomputation profiles the stream once, on
// the first call. The zero Spec builds nil, the unenhanced processor.
func (s Spec) Shortcuts(params trace.Params, n int64) func() (sim.ComputeShortcut, error) {
	profile := sync.OnceValues(func() (map[uint32]uint64, error) { return Profile(params, n) })
	return func() (sim.ComputeShortcut, error) {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		switch s.Mechanism {
		case MechPrecompute:
			freq, err := profile()
			if err != nil {
				return nil, err
			}
			return NewPrecomputation(freq, s.TableSize)
		case MechValueReuse:
			return NewValueReuse(s.TableSize)
		}
		return nil, nil
	}
}

// Precomputation is a static table of redundant-computation
// identities. It is immutable after construction: Observe is a no-op,
// matching the paper's "loaded before the program begins execution and
// never updated".
type Precomputation struct {
	table map[uint32]struct{}
}

// NewPrecomputation builds the table from a profiled frequency count:
// the tableSize most frequent computation identities are loaded.
func NewPrecomputation(freq map[uint32]uint64, tableSize int) (*Precomputation, error) {
	if tableSize < 1 {
		return nil, fmt.Errorf("enhance: table size %d invalid", tableSize)
	}
	type kv struct {
		id uint32
		n  uint64
	}
	all := make([]kv, 0, len(freq))
	for id, n := range freq {
		if id != 0 {
			all = append(all, kv{id, n})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].n != all[b].n {
			return all[a].n > all[b].n
		}
		return all[a].id < all[b].id
	})
	if len(all) > tableSize {
		all = all[:tableSize]
	}
	t := make(map[uint32]struct{}, len(all))
	for _, e := range all {
		t[e.id] = struct{}{}
	}
	return &Precomputation{table: t}, nil
}

// Profile runs the compiler's profiling pass: it scans n instructions
// of a fresh stream with the given parameters and counts how often
// each redundant-computation identity occurs, reading the shared tape
// that simulated runs of the same n instructions replay.
func Profile(params trace.Params, n int64) (map[uint32]uint64, error) {
	gen, err := trace.NewGenerator(params)
	if err != nil {
		return nil, err
	}
	gen.Replay(n)
	freq := make(map[uint32]uint64)
	for i := int64(0); i < n; i++ {
		in := gen.Next()
		if in.CompID != 0 {
			freq[in.CompID]++
		}
	}
	return freq, nil
}

// Hit implements sim.ComputeShortcut.
func (p *Precomputation) Hit(compID uint32) bool {
	_, ok := p.table[compID]
	return ok
}

// Observe implements sim.ComputeShortcut; the static table never
// trains.
func (p *Precomputation) Observe(uint32) {}

// Size returns the number of loaded identities.
func (p *Precomputation) Size() int { return len(p.table) }

// ValueReuse is a dynamic reuse table with LRU replacement: every
// committed computation trains it, so it adapts to phase behaviour at
// the cost of hardware that must write the table at runtime.
type ValueReuse struct {
	capacity int
	slots    map[uint32]uint64 // id -> last-use stamp
	clock    uint64
}

// NewValueReuse builds an empty dynamic reuse table.
func NewValueReuse(capacity int) (*ValueReuse, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("enhance: table size %d invalid", capacity)
	}
	return &ValueReuse{capacity: capacity, slots: make(map[uint32]uint64, capacity)}, nil
}

// Hit implements sim.ComputeShortcut: a lookup hit also refreshes the
// entry's recency.
func (v *ValueReuse) Hit(compID uint32) bool {
	v.clock++
	if _, ok := v.slots[compID]; ok {
		v.slots[compID] = v.clock
		return true
	}
	return false
}

// Observe implements sim.ComputeShortcut: the committed computation is
// inserted, evicting the least recently used identity when full.
func (v *ValueReuse) Observe(compID uint32) {
	if compID == 0 {
		return
	}
	v.clock++
	if _, ok := v.slots[compID]; ok {
		v.slots[compID] = v.clock
		return
	}
	if len(v.slots) >= v.capacity {
		var lruID uint32
		lruStamp := v.clock + 1
		for id, stamp := range v.slots {
			if stamp < lruStamp {
				lruID, lruStamp = id, stamp
			}
		}
		delete(v.slots, lruID)
	}
	v.slots[compID] = v.clock
}

// Size returns the current number of cached identities.
func (v *ValueReuse) Size() int { return len(v.slots) }
