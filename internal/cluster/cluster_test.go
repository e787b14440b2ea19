package cluster

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"pbsim/internal/paperdata"
)

func paperMatrix(t *testing.T) *Matrix {
	t.Helper()
	m, err := DistanceMatrix(paperdata.Benchmarks, paperdata.RankVectors(paperdata.Table9))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEuclidean(t *testing.T) {
	d, err := Euclidean([]float64{0, 0}, []float64{3, 4})
	if err != nil || d != 5 {
		t.Errorf("Euclidean = %g, %v", d, err)
	}
	if _, err := Euclidean([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should fail")
	}
	di, err := EuclideanInts([]int{1, 1}, []int{4, 5})
	if err != nil || di != 5 {
		t.Errorf("EuclideanInts = %g, %v", di, err)
	}
	if _, err := EuclideanInts([]int{1}, []int{1, 2}); err == nil {
		t.Error("length mismatch should fail")
	}
}

func TestPaperWorkedExample(t *testing.T) {
	// Section 4.2: the distance between gzip and vpr-Place using the
	// Table 9 ranks is sqrt(8058) = 89.8.
	m := paperMatrix(t)
	d := m.At(0, 1)
	if math.Abs(d-math.Sqrt(8058)) > 1e-9 {
		t.Errorf("gzip-vprPlace distance = %.6f, want sqrt(8058) = %.6f", d, math.Sqrt(8058))
	}
	if math.Abs(d-89.8) > 0.05 {
		t.Errorf("gzip-vprPlace distance = %.2f, paper prints 89.8", d)
	}
}

func TestDistanceMatrixReproducesPaperTable10(t *testing.T) {
	// Recomputing all 78 pairwise distances from the published Table 9
	// ranks must reproduce the published Table 10 within its printed
	// rounding (one decimal).
	m := paperMatrix(t)
	for i := 0; i < 13; i++ {
		for j := 0; j < 13; j++ {
			want := paperdata.Table10[i][j]
			if math.Abs(m.At(i, j)-want) > 0.051 {
				t.Errorf("distance(%s, %s) = %.2f, paper prints %.1f",
					paperdata.Benchmarks[i], paperdata.Benchmarks[j], m.At(i, j), want)
			}
		}
	}
}

func TestThresholdGroupsReproducePaperTable11(t *testing.T) {
	m := paperMatrix(t)
	groups := GroupNames(m, ThresholdGroups(m, paperdata.Threshold))
	if len(groups) != len(paperdata.Table11Groups) {
		t.Fatalf("got %d groups, want %d: %v", len(groups), len(paperdata.Table11Groups), groups)
	}
	want := make(map[string]bool)
	for _, g := range paperdata.Table11Groups {
		want[groupKey(g)] = true
	}
	for _, g := range groups {
		if !want[groupKey(g)] {
			t.Errorf("unexpected group %v", g)
		}
	}
}

func groupKey(names []string) string {
	// groups are small; canonicalize by sorted join
	sorted := append([]string{}, names...)
	for i := range sorted {
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] < sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	key := ""
	for _, s := range sorted {
		key += s + "|"
	}
	return key
}

func TestDistanceMatrixValidation(t *testing.T) {
	if _, err := DistanceMatrix([]string{"a"}, nil); err == nil {
		t.Error("name/vector count mismatch should fail")
	}
	if _, err := DistanceMatrix([]string{"a", "b"}, [][]int{{1, 2}, {1}}); err == nil {
		t.Error("ragged vectors should fail")
	}
}

func TestSimilarPairsUsesStrictThreshold(t *testing.T) {
	m := &Matrix{
		Names: []string{"a", "b", "c"},
		D: [][]float64{
			{0, 5, 10},
			{5, 0, 7},
			{10, 7, 0},
		},
	}
	pairs := m.SimilarPairs(7)
	if len(pairs) != 1 || pairs[0] != [2]int{0, 1} {
		t.Errorf("pairs = %v, want [[0 1]] (distance equal to threshold excluded)", pairs)
	}
}

func TestThresholdGroupsTransitivity(t *testing.T) {
	// a-b close, b-c close, a-c far: chain grouping still merges all
	// three (the rule behind the vpr-Route/parser/bzip2 group).
	m := &Matrix{
		Names: []string{"a", "b", "c"},
		D: [][]float64{
			{0, 1, 100},
			{1, 0, 1},
			{100, 1, 0},
		},
	}
	groups := ThresholdGroups(m, 2)
	if len(groups) != 1 || len(groups[0]) != 3 {
		t.Errorf("groups = %v, want one group of three", groups)
	}
}

func TestRepresentatives(t *testing.T) {
	m := paperMatrix(t)
	groups := ThresholdGroups(m, paperdata.Threshold)
	reps := Representatives(m, groups)
	if len(reps) != len(groups) {
		t.Fatalf("%d representatives for %d groups", len(reps), len(groups))
	}
	for gi, g := range groups {
		found := false
		for _, i := range g {
			if reps[gi] == i {
				found = true
			}
		}
		if !found {
			t.Errorf("representative %d not a member of group %v", reps[gi], g)
		}
	}
	// A singleton group's representative is its only member.
	single := &Matrix{Names: []string{"x", "y"}, D: [][]float64{{0, 99}, {99, 0}}}
	g := ThresholdGroups(single, 1)
	r := Representatives(single, g)
	if len(r) != 2 || r[0] != 0 || r[1] != 1 {
		t.Errorf("singleton representatives = %v", r)
	}
}

func TestAgglomerateSingleLinkageMatchesThresholdGroups(t *testing.T) {
	// Cutting a single-linkage dendrogram at the similarity threshold
	// yields exactly the connected components of the threshold graph.
	m := paperMatrix(t)
	dend := Agglomerate(m)
	if len(dend.Merges) != 12 {
		t.Fatalf("%d merges, want 12", len(dend.Merges))
	}
	cut := dend.CutAt(paperdata.Threshold)
	direct := ThresholdGroups(m, paperdata.Threshold)
	if len(cut) != len(direct) {
		t.Fatalf("cut gives %d groups, threshold gives %d", len(cut), len(direct))
	}
	for i := range cut {
		if len(cut[i]) != len(direct[i]) {
			t.Errorf("group %d: %v vs %v", i, cut[i], direct[i])
		}
		for j := range cut[i] {
			if cut[i][j] != direct[i][j] {
				t.Errorf("group %d member %d: %v vs %v", i, j, cut[i], direct[i])
			}
		}
	}
}

func TestAgglomerateMergeDistancesMonotoneForSingleLinkage(t *testing.T) {
	m := paperMatrix(t)
	dend := Agglomerate(m)
	for i := 1; i < len(dend.Merges); i++ {
		if dend.Merges[i].Distance < dend.Merges[i-1].Distance {
			t.Errorf("single-linkage merge distances not monotone: %g after %g",
				dend.Merges[i].Distance, dend.Merges[i-1].Distance)
		}
	}
}

func TestAgglomerate(t *testing.T) {
	m := paperMatrix(t)
	dend := Agglomerate(m)
	if len(dend.Merges) != m.Len()-1 {
		t.Errorf("%d merges", len(dend.Merges))
	}
	// Cutting at +inf yields one cluster with every leaf.
	all := dend.CutAt(math.Inf(1))
	if len(all) != 1 || len(all[0]) != m.Len() {
		t.Errorf("cut at inf = %v", all)
	}
	// Cutting at 0 yields all singletons.
	none := dend.CutAt(0)
	if len(none) != m.Len() {
		t.Errorf("cut at 0 gives %d groups", len(none))
	}
	if !strings.HasPrefix(dend.ASCII(), "agglomerative clustering (single linkage)\n") {
		t.Errorf("ASCII rendering header: %q", dend.ASCII())
	}
	empty := Agglomerate(&Matrix{})
	if len(empty.Merges) != 0 {
		t.Error("empty matrix should produce no merges")
	}
}

func TestPropDistanceAxioms(t *testing.T) {
	f := func(a, b, c []int) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if len(c) < n {
			n = len(c)
		}
		if n == 0 {
			return true
		}
		a, b, c = a[:n], b[:n], c[:n]
		// Clamp to avoid float overflow on giant ints.
		for _, v := range [][]int{a, b, c} {
			for i := range v {
				v[i] %= 1 << 20
			}
		}
		dab, _ := EuclideanInts(a, b)
		dba, _ := EuclideanInts(b, a)
		daa, _ := EuclideanInts(a, a)
		dac, _ := EuclideanInts(a, c)
		dcb, _ := EuclideanInts(c, b)
		if dab != dba || daa != 0 || dab < 0 {
			return false
		}
		// Triangle inequality with float tolerance.
		return dab <= dac+dcb+1e-9*(1+dab)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPercentileThreshold(t *testing.T) {
	m := paperMatrix(t)
	// All pairs fall below the 100th percentile; none below the 0th.
	top := PercentileThreshold(m, 1)
	bot := PercentileThreshold(m, 0)
	if top < bot {
		t.Fatalf("percentiles inverted: %g < %g", top, bot)
	}
	if got := len(m.SimilarPairs(top + 0.001)); got != 78 {
		t.Errorf("pairs below max = %d, want all 78", got)
	}
	if got := len(m.SimilarPairs(bot)); got != 0 {
		t.Errorf("pairs below min = %d, want 0", got)
	}
	// ~15% of 78 pairs ~ 11 pairs under the 15th-percentile cut.
	mid := PercentileThreshold(m, 0.15)
	n := len(m.SimilarPairs(mid))
	if n < 8 || n > 14 {
		t.Errorf("pairs below 15th percentile = %d", n)
	}
	if PercentileThreshold(&Matrix{}, 0.5) != 0 {
		t.Error("empty matrix threshold")
	}
}
