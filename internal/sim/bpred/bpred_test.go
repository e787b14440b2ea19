package bpred

import (
	"testing"
	"testing/quick"
)

func TestTwoLevelLearnsBias(t *testing.T) {
	p, err := NewTwoLevel(8, 12)
	if err != nil {
		t.Fatal(err)
	}
	pc := uint64(0x400100)
	for i := 0; i < 100; i++ {
		p.Update(pc, true)
	}
	if !p.Predict(pc) {
		t.Error("failed to learn an always-taken branch")
	}
	for i := 0; i < 100; i++ {
		p.Update(pc, false)
	}
	if p.Predict(pc) {
		t.Error("failed to learn an always-not-taken branch")
	}
}

func TestTwoLevelLearnsPattern(t *testing.T) {
	// A strictly alternating branch defeats a counter without history,
	// but a two-level predictor learns it (almost) perfectly.
	pattern := func(i int) bool { return i%2 == 0 }
	twoLevel, _ := NewTwoLevel(8, 12)
	pc := uint64(0x400200)
	var tlCorrect, total int
	for i := 0; i < 4000; i++ {
		taken := pattern(i)
		if i > 1000 { // after warmup
			total++
			if twoLevel.Predict(pc) == taken {
				tlCorrect++
			}
		}
		twoLevel.Update(pc, taken)
	}
	if tlAcc := float64(tlCorrect) / float64(total); tlAcc < 0.99 {
		t.Errorf("two-level accuracy on alternating branch = %.3f, want ~1", tlAcc)
	}
}

func TestTwoLevelLearnsLongerPeriod(t *testing.T) {
	// Period-4 pattern TTNT: learnable with >= 4 bits of history.
	seq := []bool{true, true, false, true}
	p, _ := NewTwoLevel(10, 14)
	pc := uint64(0x400300)
	correct, total := 0, 0
	for i := 0; i < 8000; i++ {
		taken := seq[i%len(seq)]
		if i > 2000 {
			total++
			if p.Predict(pc) == taken {
				correct++
			}
		}
		p.Update(pc, taken)
	}
	if acc := float64(correct) / float64(total); acc < 0.95 {
		t.Errorf("period-4 accuracy = %.3f", acc)
	}
}

func TestPredictorConstructionErrors(t *testing.T) {
	if _, err := NewTwoLevel(4, 0); err == nil {
		t.Error("tableBits 0 accepted")
	}
	if _, err := NewTwoLevel(4, 30); err == nil {
		t.Error("tableBits 30 accepted")
	}
	// Oversized history is clamped, not rejected.
	p, err := NewTwoLevel(40, 12)
	if err != nil || p == nil {
		t.Errorf("history clamping failed: %v", err)
	}
}

func TestBTBBasic(t *testing.T) {
	b, err := NewBTB(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b.Sets() != 8 || b.Ways() != 2 {
		t.Errorf("geometry %dx%d", b.Sets(), b.Ways())
	}
	if _, ok := b.Lookup(0x400000); ok {
		t.Error("cold BTB hit")
	}
	b.Insert(0x400000, 0x400800)
	tgt, ok := b.Lookup(0x400000)
	if !ok || tgt != 0x400800 {
		t.Errorf("lookup = %#x, %v", tgt, ok)
	}
	// Re-insert with a new target overwrites.
	b.Insert(0x400000, 0x400900)
	tgt, _ = b.Lookup(0x400000)
	if tgt != 0x400900 {
		t.Errorf("target not updated: %#x", tgt)
	}
	// A branch never inserted misses, in the same set and in another.
	for _, pc := range []uint64{0x400000 + 8*4, 0x400004} {
		if _, ok := b.Lookup(pc); ok {
			t.Errorf("lookup of %#x hit before any insert", pc)
		}
	}
	empty, _ := NewBTB(4, 1)
	for pc := uint64(0); pc < 64; pc += 4 {
		if _, ok := empty.Lookup(pc); ok {
			t.Fatalf("empty BTB hit at %#x", pc)
		}
	}
}

func TestBTBConflictEviction(t *testing.T) {
	// Direct-mapped BTB with 4 entries: PCs 0 and 4*4<<2 conflict.
	b, _ := NewBTB(4, 1)
	pcA := uint64(0x1000)
	pcB := pcA + 4*4 // same set (key stride = sets)
	b.Insert(pcA, 1)
	b.Insert(pcB, 2)
	if _, ok := b.Lookup(pcA); ok {
		t.Error("conflicting entry survived in direct-mapped BTB")
	}
	if tgt, ok := b.Lookup(pcB); !ok || tgt != 2 {
		t.Error("newest entry lost")
	}
}

func TestBTBFullyAssociativeLRU(t *testing.T) {
	b, _ := NewBTB(4, FullyAssociative)
	if b.Sets() != 1 || b.Ways() != 4 {
		t.Fatalf("geometry %dx%d", b.Sets(), b.Ways())
	}
	for i := 0; i < 4; i++ {
		b.Insert(uint64(0x1000+i*4), uint64(i))
	}
	b.Lookup(0x1000) // refresh entry 0
	b.Insert(0x2000, 99)
	if _, ok := b.Lookup(0x1000); !ok {
		t.Error("recently used entry evicted")
	}
	if _, ok := b.Lookup(0x1004); ok {
		t.Error("LRU entry not evicted")
	}
}

func TestBTBValidation(t *testing.T) {
	if _, err := NewBTB(0, 1); err == nil {
		t.Error("zero entries accepted")
	}
	if _, err := NewBTB(16, 3); err == nil {
		t.Error("non-dividing associativity accepted")
	}
	if _, err := NewBTB(24, 2); err == nil {
		t.Error("non-power-of-two sets accepted")
	}
	if b, err := NewBTB(8, 100); err != nil || b.Ways() != 8 {
		t.Error("oversized associativity should clamp to fully associative")
	}
}

func TestRASLIFO(t *testing.T) {
	r, err := NewRAS(4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Capacity() != 4 {
		t.Errorf("capacity = %d", r.Capacity())
	}
	r.Push(1)
	r.Push(2)
	r.Push(3)
	if r.Depth() != 3 {
		t.Errorf("depth = %d", r.Depth())
	}
	for want := uint64(3); want >= 1; want-- {
		got, ok := r.Pop()
		if !ok || got != want {
			t.Errorf("pop = %d, %v; want %d", got, ok, want)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Error("pop from empty RAS succeeded")
	}
}

func TestRASOverflowDropsOldest(t *testing.T) {
	// Depth-2 stack, push 1..3: entry 1 is overwritten; pops yield
	// 3, 2, then underflow -- the shallow-RAS misprediction mechanism.
	r, _ := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3)
	if got, _ := r.Pop(); got != 3 {
		t.Errorf("pop1 = %d", got)
	}
	if got, _ := r.Pop(); got != 2 {
		t.Errorf("pop2 = %d", got)
	}
	if _, ok := r.Pop(); ok {
		t.Error("expected underflow after overflow dropped the oldest frame")
	}
}

func TestRASValidation(t *testing.T) {
	if _, err := NewRAS(0); err == nil {
		t.Error("zero-entry RAS accepted")
	}
}

func TestPropRASNeverExceedsCapacity(t *testing.T) {
	f := func(ops []bool, capSel uint8) bool {
		capacity := int(capSel%8) + 1
		r, err := NewRAS(capacity)
		if err != nil {
			return false
		}
		for i, push := range ops {
			if push {
				r.Push(uint64(i))
			} else {
				r.Pop()
			}
			if r.Depth() < 0 || r.Depth() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropBTBLookupAfterInsert(t *testing.T) {
	f := func(pcs []uint64) bool {
		b, err := NewBTB(32, 4)
		if err != nil {
			return false
		}
		for _, pc := range pcs {
			b.Insert(pc, pc+4)
			tgt, ok := b.Lookup(pc)
			if !ok || tgt != pc+4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
