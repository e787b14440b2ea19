package pbsim

import (
	"runtime"
	"testing"

	"pbsim/internal/sim"
	"pbsim/internal/stats"
	"pbsim/internal/trace"
	"pbsim/internal/workload"
)

// The hot-path allocation guards below pin the inner loops the
// performance pass optimized at zero heap allocations per operation:
// any future change that reintroduces a per-instruction allocation
// fails these tests immediately, long before a benchmark trajectory
// would reveal it. AllocsPerRun returns float64, so the comparisons
// state their (exact) tolerance via stats.ApproxEqual.

// TestTraceGeneratorZeroAllocs pins the steady-state instruction
// stream: after construction, Next must not touch the heap.
func TestTraceGeneratorZeroAllocs(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := w.NewGenerator()
	if err != nil {
		t.Fatal(err)
	}
	var sink trace.Instr
	allocs := testing.AllocsPerRun(1000, func() {
		sink = gen.Next()
	})
	_ = sink
	if !stats.ApproxEqual(allocs, 0, 0) {
		t.Errorf("trace generator Next allocates %.1f objects/op, want 0", allocs)
	}
}

// TestTapedNextZeroAllocs pins replaying a shared tape, the path
// every design row after a benchmark's first reads its stream from:
// decoding a recorded instruction must not touch the heap.
func TestTapedNextZeroAllocs(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := w.NewGenerator()
	if err != nil {
		t.Fatal(err)
	}
	gen.Replay(4096) // records the tape; AllocsPerRun reads 1001 of it
	var sink trace.Instr
	allocs := testing.AllocsPerRun(1000, func() {
		sink = gen.Next()
	})
	_ = sink
	if !stats.ApproxEqual(allocs, 0, 0) {
		t.Errorf("taped Next allocates %.1f objects/op, want 0", allocs)
	}
}

// TestPrewarmMemoryZeroAllocs pins the lap-form memory prewarm every
// design row pays before simulating: writing the warmed cache and TLB
// state must not touch the heap.
func TestPrewarmMemoryZeroAllocs(t *testing.T) {
	w, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := w.NewGenerator()
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := sim.New(sim.Default(), gen, nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, cpu.PrewarmMemory)
	if !stats.ApproxEqual(allocs, 0, 0) {
		t.Errorf("PrewarmMemory allocates %.1f objects/op, want 0", allocs)
	}
}

// TestTapedWarmFunctionalZeroAllocs pins functional warming over a
// taped window, the path every region group of a sampled design row
// takes: once the window's shared reference view is built and the
// hierarchy's miss logs have grown, warming the window again, from
// the restored stream position, must not touch the heap.
func TestTapedWarmFunctionalZeroAllocs(t *testing.T) {
	w, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := w.NewGenerator()
	if err != nil {
		t.Fatal(err)
	}
	gen.Skip(1000)
	snap := gen.Snapshot()
	cpu, err := sim.New(sim.Default(), gen, nil)
	if err != nil {
		t.Fatal(err)
	}
	cpu.PrewarmMemory()
	const window = 8000
	warm := func() {
		if err := gen.Restore(snap); err != nil {
			t.Fatal(err)
		}
		gen.Replay(window)
		cpu.WarmFunctional(window)
	}
	warm() // records the tape and builds the view
	allocs := testing.AllocsPerRun(20, warm)
	if !stats.ApproxEqual(allocs, 0, 0) {
		t.Errorf("taped WarmFunctional allocates %.1f objects/op, want 0", allocs)
	}
}

// TestRecycledNewAllocBytes pins what the free list of hierarchy
// arrays saves every design row: once a released CPU's arrays are
// waiting, New + PrewarmMemory + Release at the largest PB L2 (8 MiB
// of 64 B lines, 2 MiB of tag array) allocates only the CPU's small
// structures, under 64 KiB per row.
func TestRecycledNewAllocBytes(t *testing.T) {
	w, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := w.NewGenerator()
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Default()
	cfg.L2SizeKB, cfg.L2Assoc, cfg.L2Block = 8192, 8, 64
	row := func() {
		cpu, err := sim.New(cfg, gen, nil)
		if err != nil {
			t.Fatal(err)
		}
		cpu.PrewarmMemory()
		cpu.Release()
	}
	row() // warms the free list
	const rows = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rows; i++ {
		row()
	}
	runtime.ReadMemStats(&after)
	if perRow := (after.TotalAlloc - before.TotalAlloc) / rows; perRow >= 64<<10 {
		t.Errorf("New + PrewarmMemory + Release allocates %d B per row with the free list warm, want < 64 KiB", perRow)
	}
}

// TestSimulatorStepZeroAllocs pins the simulator's steady-state
// cycle loop (fetch/dispatch/issue/commit over a warmed machine) on a
// compute-bound run and on a memory-bound one, whose 200-cycle DRAM
// fills leave most cycles idle, so the event-driven clock's jumps over
// them are pinned too. The 192-entry ROB spans three words of the
// issue-candidate bitset, so the multi-word wakeup walk is pinned too.
func TestSimulatorStepZeroAllocs(t *testing.T) {
	memBound := sim.Default()
	memBound.ROBEntries, memBound.MemLatFirst = 64, 200
	bigROB := sim.Default()
	bigROB.ROBEntries = 192
	for _, tc := range []struct {
		bench string
		cfg   sim.Config
	}{
		{"gzip", sim.Default()},
		{"mcf", memBound},
		{"art", bigROB},
	} {
		w, err := workload.ByName(tc.bench)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := w.NewGenerator()
		if err != nil {
			t.Fatal(err)
		}
		cpu, err := sim.New(tc.cfg, gen, nil)
		if err != nil {
			t.Fatal(err)
		}
		cpu.PrewarmMemory()
		committed := int64(2000)
		if _, err := cpu.Run(committed); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			committed += 100
			if _, err := cpu.Run(committed); err != nil {
				t.Fatal(err)
			}
		})
		if !stats.ApproxEqual(allocs, 0, 0) {
			t.Errorf("%s: simulator steady-state step allocates %.1f objects/op, want 0", tc.bench, allocs)
		}
	}
}
