package enhance

import (
	"flag"
	"io"
	"maps"
	"testing"

	"pbsim/internal/sim"
	"pbsim/internal/workload"
)

func TestProfileCountsRedundantComputations(t *testing.T) {
	w, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	freq, err := Profile(w.Params, 50000)
	if err != nil {
		t.Fatal(err)
	}
	if len(freq) == 0 {
		t.Fatal("profile found no redundant computations")
	}
	if _, ok := freq[0]; ok {
		t.Error("CompID 0 (unique computation) must not be profiled")
	}
	// Zipf skew: the most frequent identity should dominate the median.
	var max, total uint64
	for _, n := range freq {
		total += n
		if n > max {
			max = n
		}
	}
	if max*uint64(len(freq)) < total {
		t.Errorf("no skew: max %d, mean %d", max, total/uint64(len(freq)))
	}
	bad := w.Params
	bad.NumBlocks = 0
	if _, err := Profile(bad, 10); err == nil {
		t.Error("Profile accepted invalid params")
	}
}

func TestPrecomputationKeepsTopIdentities(t *testing.T) {
	freq := map[uint32]uint64{1: 100, 2: 90, 3: 80, 4: 5, 5: 1, 0: 9999}
	p, err := NewPrecomputation(freq, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 3 {
		t.Fatalf("size = %d", p.Size())
	}
	for _, id := range []uint32{1, 2, 3} {
		if !p.Hit(id) {
			t.Errorf("top identity %d missing", id)
		}
	}
	for _, id := range []uint32{4, 5, 0, 77} {
		if p.Hit(id) {
			t.Errorf("identity %d should not be loaded", id)
		}
	}
	// The static table never trains.
	p.Observe(4)
	if p.Hit(4) {
		t.Error("Observe must not modify the static table")
	}
	if _, err := NewPrecomputation(freq, 0); err == nil {
		t.Error("zero table size accepted")
	}
	empty, err := NewPrecomputation(nil, 8)
	if err != nil || empty.Size() != 0 {
		t.Errorf("empty profile: %v, size %d", err, empty.Size())
	}
}

func TestPrecomputationTieBreakDeterministic(t *testing.T) {
	freq := map[uint32]uint64{10: 5, 20: 5, 30: 5, 40: 5}
	a, _ := NewPrecomputation(freq, 2)
	b, _ := NewPrecomputation(freq, 2)
	for id := uint32(1); id <= 50; id++ {
		if a.Hit(id) != b.Hit(id) {
			t.Fatalf("tie-break nondeterministic at id %d", id)
		}
	}
	// Lowest ids win ties.
	if !a.Hit(10) || !a.Hit(20) || a.Hit(30) || a.Hit(40) {
		t.Error("expected ids 10 and 20 to be kept")
	}
}

func TestValueReuseLRU(t *testing.T) {
	v, err := NewValueReuse(2)
	if err != nil {
		t.Fatal(err)
	}
	v.Observe(1)
	v.Observe(2)
	if !v.Hit(1) { // refreshes 1
		t.Fatal("1 should be cached")
	}
	v.Observe(3) // evicts 2 (LRU)
	if v.Hit(2) {
		t.Error("2 should have been evicted")
	}
	if !v.Hit(1) || !v.Hit(3) {
		t.Error("1 and 3 should be cached")
	}
	if v.Size() != 2 {
		t.Errorf("size = %d", v.Size())
	}
	v.Observe(0) // ignored
	if v.Size() != 2 {
		t.Error("CompID 0 must not be inserted")
	}
	v.Observe(1) // refresh path
	if !v.Hit(1) {
		t.Error("refresh lost entry")
	}
	if _, err := NewValueReuse(0); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestPrecomputationSpeedsUpSimulation(t *testing.T) {
	// End-to-end: the 128-entry precomputation table of Section 4.3
	// must reduce gzip's execution time and offload the int ALUs.
	w, _ := workload.ByName("gzip")
	gen, _ := w.NewGenerator()
	base, _ := sim.New(sim.Default(), gen, nil)
	base.PrewarmMemory()
	sBase, err := base.Run(20000)
	if err != nil {
		t.Fatal(err)
	}

	freq, _ := Profile(w.Params, 100000)
	table, _ := NewPrecomputation(freq, 128)
	gen2, _ := w.NewGenerator()
	enh, _ := sim.New(sim.Default(), gen2, table)
	enh.PrewarmMemory()
	sEnh, err := enh.Run(20000)
	if err != nil {
		t.Fatal(err)
	}
	if sEnh.PrecompHits == 0 {
		t.Fatal("precomputation never hit")
	}
	if sEnh.Cycles >= sBase.Cycles {
		t.Errorf("no speedup: %d vs %d cycles", sEnh.Cycles, sBase.Cycles)
	}
	if sEnh.IntALUOps >= sBase.IntALUOps {
		t.Errorf("int ALU not offloaded: %d vs %d ops", sEnh.IntALUOps, sBase.IntALUOps)
	}
}

func TestValueReuseVsPrecomputation(t *testing.T) {
	// Both mechanisms work end to end; the dynamic table adapts
	// without profiling.
	w, _ := workload.ByName("bzip2")
	gen, _ := w.NewGenerator()
	vr, _ := NewValueReuse(128)
	cpu, _ := sim.New(sim.Default(), gen, vr)
	cpu.PrewarmMemory()
	s, err := cpu.Run(20000)
	if err != nil {
		t.Fatal(err)
	}
	if s.PrecompHits == 0 {
		t.Error("value reuse never hit")
	}
	if vr.Size() == 0 || vr.Size() > 128 {
		t.Errorf("table size = %d", vr.Size())
	}
}

func TestSpecValidate(t *testing.T) {
	for _, s := range []Spec{{}, {MechPrecompute, 1}, {MechValueReuse, 128}} {
		if err := s.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", s, err)
		}
	}
	for _, s := range []Spec{{MechPrecompute, 0}, {MechValueReuse, -1}, {"turbo", 128}, {"", 128}, {"base", 0}} {
		if err := s.Validate(); err == nil {
			t.Errorf("%+v accepted", s)
		}
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	for text, want := range map[string]Spec{
		"base":           {},
		"precompute-128": {MechPrecompute, 128},
		"valuereuse-1":   {MechValueReuse, 1},
	} {
		s, err := ParseSpec(text)
		if err != nil || s != want {
			t.Errorf("ParseSpec(%q) = %+v, %v; want %+v", text, s, err, want)
		}
		if s.String() != text {
			t.Errorf("%+v.String() = %q, want %q", s, s.String(), text)
		}
	}
	for _, text := range []string{"", "-0", "precompute", "precompute-", "precompute-0", "precompute--1",
		"precompute-0128", "precompute-+128", "turbo-128", "Base", "precompute-128 ", "valuereuse-1-2"} {
		if s, err := ParseSpec(text); err == nil {
			t.Errorf("ParseSpec(%q) accepted as %+v", text, s)
		}
	}
}

// TestRegisterFlag: -enhance keeps its default when absent, takes any
// label ParseSpec accepts, and refuses any other text at parse time.
func TestRegisterFlag(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want Spec
		ok   bool
	}{
		{nil, Spec{MechPrecompute, 128}, true},
		{[]string{"-enhance", "base"}, Spec{}, true},
		{[]string{"-enhance", "valuereuse-64"}, Spec{MechValueReuse, 64}, true},
		{[]string{"-enhance", "precompute-0"}, Spec{}, false},
		{[]string{"-enhance", "precompute"}, Spec{}, false},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		got := RegisterFlag(fs, Spec{MechPrecompute, 128})
		err := fs.Parse(tc.args)
		if (err == nil) != tc.ok || (tc.ok && *got != tc.want) {
			t.Errorf("%q: -enhance = %+v, %v; want %+v, ok %v", tc.args, *got, err, tc.want, tc.ok)
		}
	}
}

func TestSpecShortcuts(t *testing.T) {
	w, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	if sc, err := (Spec{}).Shortcuts(w.Params, 1000)(); sc != nil || err != nil {
		t.Errorf("base spec built %v, %v; want no shortcut", sc, err)
	}
	if _, err := (Spec{MechPrecompute, 0}).Shortcuts(w.Params, 1000)(); err == nil {
		t.Error("invalid spec built a shortcut")
	}
	for _, s := range []Spec{{MechPrecompute, 16}, {MechValueReuse, 16}} {
		build := s.Shortcuts(w.Params, 5000)
		a, errA := build()
		b, errB := build()
		if errA != nil || errB != nil {
			t.Fatalf("%s: %v, %v", s, errA, errB)
		}
		if a == b {
			t.Errorf("%s: two runs share one table", s)
		}
	}
	// The precomputation table is the one a hand profile loads.
	freq, err := Profile(w.Params, 5000)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewPrecomputation(freq, 16)
	if err != nil {
		t.Fatal(err)
	}
	got, err := (Spec{MechPrecompute, 16}).Shortcuts(w.Params, 5000)()
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := got.(*Precomputation); !ok || !maps.Equal(p.table, want.table) {
		t.Errorf("precomputation table differs from the profiled one")
	}
}
