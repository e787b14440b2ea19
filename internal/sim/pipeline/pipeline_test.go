package pipeline

import (
	"math/bits"
	"slices"
	"testing"
	"testing/quick"
)

func TestPoolPipelined(t *testing.T) {
	p, err := NewPool(1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 1 {
		t.Errorf("size = %d", p.Size())
	}
	// Interval 1: back-to-back issues every cycle.
	if !p.TryIssue(0, 1) {
		t.Fatal("issue at 0 failed")
	}
	if p.TryIssue(0, 1) {
		t.Error("double issue in the same cycle on one unit")
	}
	if !p.TryIssue(1, 1) {
		t.Error("pipelined unit refused next-cycle issue")
	}
	if p.Issued() != 2 {
		t.Errorf("issued = %d", p.Issued())
	}
}

func TestPoolUnpipelined(t *testing.T) {
	// Interval 20 (e.g. an unpipelined divider): the unit is busy for
	// 20 cycles.
	p, _ := NewPool(1)
	if !p.TryIssue(0, 20) {
		t.Fatal("issue failed")
	}
	for c := int64(1); c < 20; c++ {
		if p.TryIssue(c, 20) {
			t.Fatalf("unpipelined unit accepted work at cycle %d", c)
		}
	}
	if !p.TryIssue(20, 20) {
		t.Error("unit still busy after interval elapsed")
	}
	if p.NextFree() != 40 {
		t.Errorf("NextFree = %d", p.NextFree())
	}
}

func TestPoolMultipleUnits(t *testing.T) {
	p, _ := NewPool(3)
	for i := 0; i < 3; i++ {
		if !p.TryIssue(0, 10) {
			t.Fatalf("unit %d refused issue", i)
		}
	}
	if p.TryIssue(0, 10) {
		t.Error("fourth issue on three units")
	}
	p.Reset()
	if !p.TryIssue(0, 10) || p.Issued() != 1 {
		t.Error("reset did not free units")
	}
	if _, err := NewPool(0); err == nil {
		t.Error("zero-unit pool accepted")
	}
	if p.TryIssue(100, 0) != true {
		t.Error("interval < 1 should clamp, not fail")
	}
}

func TestROBFIFOOrder(t *testing.T) {
	r, err := NewROB(4)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Empty() || r.Capacity() != 4 {
		t.Error("fresh ROB state")
	}
	for i := int64(0); i < 4; i++ {
		e := r.Push()
		e.Seq = i
	}
	if !r.Full() || r.Len() != 4 {
		t.Error("ROB should be full")
	}
	for i := int64(0); i < 4; i++ {
		if got := r.Head().Seq; got != i {
			t.Errorf("head seq = %d, want %d", got, i)
		}
		r.PopHead()
	}
	if !r.Empty() {
		t.Error("ROB should be empty")
	}
}

func TestROBWrapAround(t *testing.T) {
	r, _ := NewROB(3)
	seq := int64(0)
	for round := 0; round < 5; round++ {
		for !r.Full() {
			r.Push().Seq = seq
			seq++
		}
		// Verify At indexing across the wrap.
		for i := 0; i < r.Len(); i++ {
			if r.At(i).Seq != r.Head().Seq+int64(i) {
				t.Fatalf("At(%d) out of order after wrap", i)
			}
		}
		r.PopHead()
		r.PopHead()
	}
}

func TestROBPanics(t *testing.T) {
	r, _ := NewROB(1)
	mustPanic(t, "PopHead empty", func() { r.PopHead() })
	r.Push()
	mustPanic(t, "Push full", func() { r.Push() })
	mustPanic(t, "At range", func() { r.At(5) })
	if _, err := NewROB(0); err == nil {
		t.Error("zero-capacity ROB accepted")
	}
	if r.Head() == nil {
		t.Error("head of non-empty ROB nil")
	}
	r.PopHead()
	if r.Head() != nil {
		t.Error("head of empty ROB not nil")
	}
}

func TestROBSlotsAndWakeup(t *testing.T) {
	r, _ := NewROB(4)
	p1, p2, c := r.Push(), r.Push(), r.Push()
	for s, e := range []*Entry{p1, p2, c} {
		if r.Slot(s) != e {
			t.Fatalf("Slot(%d) is not the entry pushed %d-th", s, s)
		}
	}
	r.Arm(p1, 0)
	r.Arm(p2, 3)
	// c reads both producers, one and two places older.
	r.Await(c, 1)
	r.Await(c, 2)
	r.Arm(c, 5)
	if got := candidateSlots(r); !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("candidates %v, want [0 1]", got)
	}
	r.Issue(1, 20)
	if !p2.Issued || p2.ReadyAt != 20 {
		t.Errorf("issued entry: Issued %v, ReadyAt %d", p2.Issued, p2.ReadyAt)
	}
	if got := candidateSlots(r); !slices.Equal(got, []int{0}) {
		t.Fatalf("after one producer issued: candidates %v, want [0]", got)
	}
	r.Issue(0, 10)
	if got := candidateSlots(r); !slices.Equal(got, []int{2}) {
		t.Fatalf("after both producers issued: candidates %v, want [2]", got)
	}
	if c.OpsAt != 20 {
		t.Errorf("consumer OpsAt %d, want the later producer's 20", c.OpsAt)
	}
	r.Issue(2, 21)
	if got := candidateSlots(r); len(got) != 0 {
		t.Errorf("candidates %v after every entry issued", got)
	}
	// The freed slots come back clean: no candidate bit, no waiters.
	r.PopHead()
	r.PopHead()
	r.PopHead()
	r.Push()
	e := r.Push()
	if r.Slot(0) != e || e.waiters != -1 || e.pending != 0 || e.Issued {
		t.Errorf("slot 0 reused dirty: %+v", *e)
	}
	if got := candidateSlots(r); len(got) != 0 {
		t.Errorf("candidates %v before Arm", got)
	}
}

func TestROBAgeWalk(t *testing.T) {
	for _, tc := range []struct {
		name              string
		capacity, head, n int
	}{
		{"head mid-word", 128, 37, 50},
		{"head in the second word", 192, 100, 60},
		{"full", 130, 5, 130},
		{"full from slot 0", 64, 0, 64},
		{"wrapped", 70, 60, 30},
		{"wrapped, full, head mid-word", 200, 150, 200},
		{"one slot", 1, 0, 1},
	} {
		r, _ := NewROB(tc.capacity)
		// Move the head: push, issue and retire head entries.
		for i := 0; i < tc.head; i++ {
			e := r.Push()
			r.Arm(e, 0)
			r.Issue(int(e.slot), 1)
			r.PopHead()
		}
		// Of every three entries, the first is a candidate, the second
		// has issued and the third awaits the first.
		var want []int
		for i := 0; i < tc.n; i++ {
			e := r.Push()
			e.Seq = int64(i)
			switch i % 3 {
			case 1:
				r.Arm(e, 0)
				r.Issue(int(e.slot), 1)
			case 2:
				r.Await(e, 2)
				r.Arm(e, 0)
			default:
				r.Arm(e, 0)
				want = append(want, int(e.slot))
			}
		}
		got := candidateSlots(r)
		if !slices.Equal(got, want) {
			t.Errorf("%s: walk visits %v, want %v", tc.name, got, want)
		}
		for j := 1; j < len(got); j++ {
			if r.Slot(got[j]).Seq <= r.Slot(got[j-1]).Seq {
				t.Errorf("%s: walk visits seq %d after seq %d", tc.name, r.Slot(got[j]).Seq, r.Slot(got[j-1]).Seq)
			}
		}
	}
}

// candidateSlots collects the oldest-first candidate walk.
func candidateSlots(r *ROB) []int {
	var slots []int
	for k, n := 0, r.AgeWords(); k < n; k++ {
		base, word := r.AgeWord(k)
		for ; word != 0; word &= word - 1 {
			slots = append(slots, base+bits.TrailingZeros64(word))
		}
	}
	return slots
}

func TestLSQ(t *testing.T) {
	q, err := NewLSQ(2)
	if err != nil {
		t.Fatal(err)
	}
	if q.Capacity() != 2 || q.Len() != 0 || q.Full() {
		t.Error("fresh LSQ state")
	}
	if !q.Alloc() || !q.Alloc() {
		t.Error("alloc within capacity failed")
	}
	if q.Alloc() {
		t.Error("alloc beyond capacity succeeded")
	}
	q.Release()
	if !q.Alloc() {
		t.Error("alloc after release failed")
	}
	if _, err := NewLSQ(0); err == nil {
		t.Error("zero-capacity LSQ accepted")
	}
	empty, _ := NewLSQ(1)
	mustPanic(t, "Release empty", func() { empty.Release() })
}

func TestPropROBCountConsistent(t *testing.T) {
	f := func(ops []bool, capSel uint8) bool {
		capacity := int(capSel%7) + 1
		r, err := NewROB(capacity)
		if err != nil {
			return false
		}
		model := 0
		for _, push := range ops {
			if push {
				if !r.Full() {
					r.Push()
					model++
				}
			} else if !r.Empty() {
				r.PopHead()
				model--
			}
			if r.Len() != model || r.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}
