package cache_test

import (
	"runtime"
	"sort"
	"sync"
	"testing"

	"pbsim/internal/pb"
	"pbsim/internal/sim"
	"pbsim/internal/sim/cache"
	"pbsim/internal/workload"
)

const recycleWarmup, recycleN = 500, 1500

// runRow simulates one design row the way a campaign does: New,
// PrewarmMemory, RunWithWarmup over the row's stream, then Release
// when release is set.
func runRow(w workload.Workload, levels []pb.Level, release bool) (sim.Stats, error) {
	gen, err := w.NewGenerator()
	if err != nil {
		return sim.Stats{}, err
	}
	gen.Replay(recycleWarmup + recycleN)
	cpu, err := sim.New(sim.ConfigForLevels(levels), gen, nil)
	if err != nil {
		return sim.Stats{}, err
	}
	if release {
		defer cpu.Release()
	}
	cpu.PrewarmMemory()
	return cpu.RunWithWarmup(recycleWarmup, recycleN)
}

// TestRecycledHierarchiesMatchFresh: GIVEN the 88 foldover rows of
// gzip, mcf and art, ordered so that the largest and smallest L2
// geometries alternate, and each row's statistics from a CPU built on
// fresh arrays; WHEN two goroutines run every row through New,
// PrewarmMemory, RunWithWarmup and Release, so each row's arrays come
// from an earlier row of either goroutine, recycled up and down in
// size; THEN every row's statistics equal the fresh CPU's, field by
// field.
func TestRecycledHierarchiesMatchFresh(t *testing.T) {
	design, err := pb.New(len(sim.Factors()), true)
	if err != nil {
		t.Fatal(err)
	}
	l2Lines := func(r int) int {
		cfg := sim.ConfigForLevels(design.Row(r))
		return cfg.L2SizeKB << 10 / cfg.L2Block
	}
	bySize := make([]int, design.Runs())
	for r := range bySize {
		bySize[r] = r
	}
	sort.SliceStable(bySize, func(i, j int) bool { return l2Lines(bySize[i]) < l2Lines(bySize[j]) })
	var order []int // largest, smallest, next largest, next smallest, ...
	for lo, hi := 0, len(bySize)-1; lo <= hi; lo, hi = lo+1, hi-1 {
		order = append(order, bySize[hi])
		if lo < hi {
			order = append(order, bySize[lo])
		}
	}
	if l2Lines(order[0]) == l2Lines(order[1]) {
		t.Fatalf("design rows share one L2 geometry (%d lines)", l2Lines(order[0]))
	}

	type job struct {
		w   workload.Workload
		row int
	}
	var jobs []job
	for _, name := range []string{"gzip", "mcf", "art"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range order {
			jobs = append(jobs, job{w, r})
		}
	}

	cache.DrainFreeList()
	fresh := make([]sim.Stats, len(jobs))
	for i, j := range jobs {
		if fresh[i], err = runRow(j.w, design.Row(j.row), false); err != nil {
			t.Fatal(err)
		}
	}

	recycled := make([]sim.Stats, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(jobs); i += 2 {
				recycled[i], errs[i] = runRow(jobs[i].w, design.Row(jobs[i].row), true)
			}
		}(g)
	}
	wg.Wait()
	for i, j := range jobs {
		if errs[i] != nil {
			t.Fatalf("%s row %d: %v", j.w.Name, j.row, errs[i])
		}
		if recycled[i] != fresh[i] {
			t.Errorf("%s row %d: recycled arrays give\n%+v\nfresh arrays give\n%+v", j.w.Name, j.row, recycled[i], fresh[i])
		}
	}
	if n := cache.FreeListLen(); n == 0 {
		t.Error("no hierarchy was released to the free list")
	}
}

// TestFreeListBounded: GIVEN an empty free list, WHEN three times
// GOMAXPROCS hierarchies are built and all released, THEN the list
// keeps GOMAXPROCS of them and leaves the rest to the garbage
// collector.
func TestFreeListBounded(t *testing.T) {
	def := sim.Default()
	cfg := def.HierarchyConfig()
	cache.DrainFreeList()
	limit := runtime.GOMAXPROCS(0)
	hs := make([]*cache.Hierarchy, 3*limit)
	for i := range hs {
		h, err := cache.NewHierarchy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hs[i] = h
	}
	for _, h := range hs {
		h.Release()
		if n := cache.FreeListLen(); n > limit {
			t.Fatalf("free list holds %d hierarchies, more than GOMAXPROCS = %d", n, limit)
		}
	}
	if n := cache.FreeListLen(); n != limit {
		t.Errorf("free list holds %d hierarchies after %d releases, want GOMAXPROCS = %d", n, len(hs), limit)
	}
}

// TestHierarchyReleaseIdempotent: GIVEN a released hierarchy, WHEN it
// is released again, THEN nothing more reaches the free list, and the
// released hierarchy has no structures left to use.
func TestHierarchyReleaseIdempotent(t *testing.T) {
	def := sim.Default()
	h, err := cache.NewHierarchy(def.HierarchyConfig())
	if err != nil {
		t.Fatal(err)
	}
	cache.DrainFreeList()
	h.Release()
	h.Release()
	if n := cache.FreeListLen(); n != 1 {
		t.Errorf("two Releases of one hierarchy left %d on the free list, want 1", n)
	}
	if h.L1I != nil || h.L1D != nil || h.L2 != nil || h.ITLB != nil || h.DTLB != nil {
		t.Error("a released hierarchy still holds its structures")
	}
}
