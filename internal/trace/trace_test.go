package trace

import (
	"math"
	"testing"
	"testing/quick"
)

// testParams returns a small, valid parameter set.
func testParams(seed uint64) Params {
	p := Params{
		Seed:            seed,
		NumBlocks:       50,
		AvgBlockLen:     6,
		CallFraction:    0.1,
		PatternPeriod:   8,
		Predictability:  0.9,
		WorkingSetBytes: 1 << 16,
		TemporalFrac:    0.4,
		SeqFrac:         0.3,
		StrideBytes:     8,
		MeanDepDist:     4,
		RedundantFrac:   0.2,
		NumCompIDs:      256,
		ZipfExponent:    1.5,
	}
	p.Mix[IntALU] = 0.5
	p.Mix[IntMult] = 0.03
	p.Mix[IntDiv] = 0.01
	p.Mix[FPAdd] = 0.05
	p.Mix[FPMult] = 0.02
	p.Mix[FPDiv] = 0.005
	p.Mix[FPSqrt] = 0.002
	p.Mix[Load] = 0.25
	p.Mix[Store] = 0.12
	return p
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %g out of [0,1)", f)
		}
		if n := r.Intn(17); n < 0 || n >= 17 {
			t.Fatalf("Intn(17) = %d", n)
		}
		if g := r.Geometric(3); g < 1 || g > 1024 {
			t.Fatalf("Geometric = %d", g)
		}
	}
	if g := r.Geometric(0.5); g != 1 {
		t.Errorf("Geometric(mean<=1) = %d, want 1", g)
	}
}

func TestGeometricMeanApprox(t *testing.T) {
	r := NewRNG(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += float64(r.Geometric(6))
	}
	mean := sum / n
	if math.Abs(mean-6) > 0.2 {
		t.Errorf("geometric mean = %.3f, want ~6", mean)
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(3)
	z := NewZipf(r, 100, 1.5)
	counts := make([]int, 101)
	for i := 0; i < 100000; i++ {
		k := z.Next()
		if k < 1 || k > 100 {
			t.Fatalf("Zipf rank %d out of range", k)
		}
		counts[k]++
	}
	if counts[1] <= counts[2] || counts[2] <= counts[10] || counts[10] <= counts[50] {
		t.Errorf("Zipf counts not skewed: 1:%d 2:%d 10:%d 50:%d",
			counts[1], counts[2], counts[10], counts[50])
	}
	// Degenerate n handled.
	z1 := NewZipf(NewRNG(1), 0, 1)
	if k := z1.Next(); k != 1 {
		t.Errorf("Zipf(n<1) rank = %d", k)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	g1, err := NewGenerator(testParams(99))
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewGenerator(testParams(99))
	for i := 0; i < 20000; i++ {
		a, b := g1.Next(), g2.Next()
		if a != b {
			t.Fatalf("instruction %d differs: %+v vs %+v", i, a, b)
		}
	}
	if g1.Emitted() != 20000 {
		t.Errorf("Emitted = %d", g1.Emitted())
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	g1, _ := NewGenerator(testParams(1))
	g2, _ := NewGenerator(testParams(2))
	same := 0
	for i := 0; i < 1000; i++ {
		if g1.Next() == g2.Next() {
			same++
		}
	}
	if same > 900 {
		t.Errorf("different seeds produced %d/1000 identical instructions", same)
	}
}

func TestGeneratorStreamInvariants(t *testing.T) {
	p := testParams(5)
	g, err := NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	var nControl, nMem, nComp, nRedundant int
	callDepth := 0
	for i := int64(0); i < 50000; i++ {
		in := g.Next()
		if in.PC < CodeBase {
			t.Fatalf("PC %#x below code base", in.PC)
		}
		if in.Dep1 < 0 || int64(in.Dep1) > i || in.Dep1 > 64 {
			t.Fatalf("instr %d: Dep1 = %d", i, in.Dep1)
		}
		if in.Dep2 < 0 || int64(in.Dep2) > i || in.Dep2 > 64 {
			t.Fatalf("instr %d: Dep2 = %d", i, in.Dep2)
		}
		switch {
		case in.Class.IsControl():
			nControl++
			if in.Taken && in.Target == 0 {
				t.Fatalf("taken control instr with zero target: %+v", in)
			}
			if in.Class == Call {
				callDepth++
			}
			if in.Class == Return {
				callDepth--
				if callDepth < 0 {
					t.Fatal("return without matching call")
				}
			}
		case in.Class.IsMem():
			nMem++
			if in.Addr < DataBase || in.Addr >= DataBase+p.WorkingSetBytes+p.StrideBytes {
				t.Fatalf("memory address %#x outside working set", in.Addr)
			}
			if in.CompID != 0 {
				t.Fatalf("memory instruction carries CompID: %+v", in)
			}
		default:
			nComp++
			if in.CompID != 0 {
				nRedundant++
				if int(in.CompID) > p.NumCompIDs {
					t.Fatalf("CompID %d out of range", in.CompID)
				}
			}
		}
	}
	// Roughly 1/AvgBlockLen control instructions.
	ctrlFrac := float64(nControl) / 50000
	if ctrlFrac < 0.05 || ctrlFrac > 0.5 {
		t.Errorf("control fraction = %.3f, expected near 1/%d", ctrlFrac, p.AvgBlockLen)
	}
	if nMem == 0 || nComp == 0 || nRedundant == 0 {
		t.Errorf("degenerate stream: mem=%d comp=%d redundant=%d", nMem, nComp, nRedundant)
	}
	// Redundant fraction of compute instructions near the parameter.
	rf := float64(nRedundant) / float64(nComp)
	if math.Abs(rf-p.RedundantFrac) > 0.05 {
		t.Errorf("redundant fraction = %.3f, want ~%.2f", rf, p.RedundantFrac)
	}
}

func TestGeneratorBranchPredictabilityKnob(t *testing.T) {
	// With predictability 1.0 every branch follows its periodic
	// pattern except for the small per-instance deviation (the
	// data-dependent loop-exit noise that keeps the walk ergodic), so
	// a per-(branch, phase) oracle table must be nearly perfect.
	p := testParams(17)
	p.Predictability = 1.0
	p.CallFraction = 0
	g, _ := NewGenerator(p)
	type key struct {
		pc    uint64
		phase uint32
	}
	counts := map[key][2]int{}
	visit := map[uint64]uint32{}
	for i := 0; i < 30000; i++ {
		in := g.Next()
		if in.Class != Branch {
			continue
		}
		k := key{in.PC, visit[in.PC] % uint32(p.PatternPeriod)}
		visit[in.PC]++
		c := counts[k]
		if in.Taken {
			c[0]++
		} else {
			c[1]++
		}
		counts[k] = c
	}
	minority, total := 0, 0
	for _, c := range counts {
		total += c[0] + c[1]
		if c[0] < c[1] {
			minority += c[0]
		} else {
			minority += c[1]
		}
	}
	if total == 0 {
		t.Fatal("no branch observations")
	}
	if frac := float64(minority) / float64(total); frac > 0.03 {
		t.Errorf("pattern-branch deviation fraction = %.4f, want <= ~0.01", frac)
	}
}

func TestGeneratorWorkingSetKnob(t *testing.T) {
	small := testParams(23)
	small.WorkingSetBytes = 1 << 10
	big := testParams(23)
	big.WorkingSetBytes = 1 << 24
	gs, _ := NewGenerator(small)
	gb, _ := NewGenerator(big)
	unique := func(g *Generator) int {
		set := map[uint64]bool{}
		for i := 0; i < 30000; i++ {
			in := g.Next()
			if in.Class.IsMem() {
				set[in.Addr>>6] = true // 64B block granularity
			}
		}
		return len(set)
	}
	us, ub := unique(gs), unique(gb)
	if us*4 > ub {
		t.Errorf("working-set knob ineffective: small=%d blocks, big=%d blocks", us, ub)
	}
}

func TestParamsValidate(t *testing.T) {
	good := testParams(1)
	if err := good.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	cases := []func(*Params){
		func(p *Params) { p.NumBlocks = 1 },
		func(p *Params) { p.AvgBlockLen = 1 },
		func(p *Params) { p.WorkingSetBytes = 8 },
		func(p *Params) { p.WorkingSetBytes = 1 << 32 },
		func(p *Params) { p.NumBlocks = 1 << 28 },   // code would reach DataBase
		func(p *Params) { p.AvgBlockLen = 1 << 60 }, // and here 16*AvgBlockLen would overflow
		func(p *Params) { p.PatternPeriod = 0 },
		func(p *Params) { p.Mix[Load] = -1 },
		func(p *Params) { p.Mix = [NumClasses]float64{} },
	}
	for i, mutate := range cases {
		p := testParams(1)
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
		if _, err := NewGenerator(p); err == nil {
			t.Errorf("case %d: NewGenerator accepted invalid params", i)
		}
	}
}

func TestCodeFootprint(t *testing.T) {
	p := testParams(1)
	want := uint64(p.NumBlocks) * uint64(p.AvgBlockLen) * 4
	if got := p.CodeFootprintBytes(); got != want {
		t.Errorf("CodeFootprintBytes = %d, want %d", got, want)
	}
}

func TestClassPredicates(t *testing.T) {
	if !Load.IsMem() || !Store.IsMem() || IntALU.IsMem() {
		t.Error("IsMem")
	}
	if !Branch.IsControl() || !Call.IsControl() || !Return.IsControl() || Load.IsControl() {
		t.Error("IsControl")
	}
	for _, c := range []Class{IntALU, IntMult, IntDiv, FPAdd, FPMult, FPDiv, FPSqrt} {
		if !c.IsCompute() {
			t.Errorf("%s should be compute", c)
		}
	}
	if Load.IsCompute() || Branch.IsCompute() {
		t.Error("IsCompute false positives")
	}
	for c := IntALU; c < NumClasses; c++ {
		if c.String() == "Class(?)" {
			t.Errorf("class %d missing name", c)
		}
	}
	if Class(200).String() != "Class(?)" {
		t.Error("unknown class name")
	}
}

func TestPropGeneratorRobustAcrossSeeds(t *testing.T) {
	f := func(seed uint64) bool {
		p := testParams(seed)
		g, err := NewGenerator(p)
		if err != nil {
			return false
		}
		for i := 0; i < 2000; i++ {
			in := g.Next()
			if in.Class >= NumClasses {
				return false
			}
			if in.Class.IsMem() && in.Addr < DataBase {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
