package main

import (
	"math"
	"testing"
)

func TestQuantileMatchesPythonExclusive(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	// == [2.75, 5.5, 8.25]; with n=100 the 50th entry is 5.5 and the
	// 99th, past the last order statistic, extrapolates to 10.89.
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct {
		i, n int
		want float64
	}{
		{1, 4, 2.75}, {2, 4, 5.5}, {3, 4, 8.25}, {50, 100, 5.5}, {99, 100, 10.89},
	} {
		if got := quantile(xs, c.i, c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%d/%d) = %v, want %v", c.i, c.n, got, c.want)
		}
	}
	// statistics.quantiles([3.1, 2.9, 3.0], n=4) == [2.9, 3.0, 3.1].
	if got := iqr([]float64{3.1, 2.9, 3.0}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("iqr = %v, want 0.2", got)
	}
	if !math.IsNaN(quantile(nil, 1, 4)) || quantile([]float64{7}, 3, 4) != 7 {
		t.Error("empty sample must give NaN and a single value itself")
	}
	if xs[0] != 10 {
		t.Error("quantile reordered its input")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a: union 10..60
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to 90..100
		{Name: "a.1", Start: 15, End: 20, Parent: 1},
		{Name: "other", Start: 0, End: 50, Parent: -1},
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5, 50}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	x := indexSpans(spans)
	if tot := x.total("a", "root"); tot.Count != 1 || tot.Dur != 30 || tot.Self != 25 {
		t.Errorf("total(a under root) = %+v", tot)
	}
	if tot := x.total("a.1", "root"); tot.Count != 0 {
		t.Errorf("a.1 is not under root: %+v", tot)
	}
}

func TestMixSeed(t *testing.T) {
	const base = 0xC0FFEE01
	if mixSeed(0, base) != base {
		t.Error("seed 0 must keep the canonical stream")
	}
	if mixSeed(7, base) != mixSeed(7, base) {
		t.Error("mixing is not deterministic")
	}
	// Pinned: a change to the hash silently changes every workload.
	if got := mixSeed(1, base); got != base^0xb456bcfc34c2cb2c {
		t.Errorf("mixSeed(1) = %#x", got)
	}
	seen := make(map[uint64]bool)
	for s := uint64(0); s < 1000; s++ {
		v := mixSeed(s, base)
		if seen[v] {
			t.Fatalf("seeds collide at %d", s)
		}
		seen[v] = true
	}
}

func TestVerdict(t *testing.T) {
	old := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name  string
		new   []float64
		lower bool
		bound float64
		want  string
	}{
		{"faster", scale(old, 0.8), true, 0.1, improved},
		{"slower", scale(old, 1.2), true, 0.1, worse},
		{"same", old, true, 0.1, unchanged},
		{"slightly slower", scale(old, 1.05), true, 0.1, unchanged},
		{"higher is better", scale(old, 1.2), false, 0.1, improved},
		{"spread wider than bound", scale(old, 1.2), true, 0.001, unresolved},
	} {
		if got, _, _ := verdict(old, c.new, c.lower, c.bound); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	if got, _, _ := verdict(nil, old, true, 0.1); got != unresolved {
		t.Errorf("no pairs: verdict %s, want unresolved", got)
	}
}
