package pbsim

import (
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

// TestSimulatorStepZeroAllocs pins the simulator's steady-state
// cycle loop (fetch/dispatch/issue/commit over a warmed machine) on a
// compute-bound run and on a memory-bound one, whose 200-cycle DRAM
// fills leave most cycles idle, so the event-driven clock's jumps over
// them are pinned too.
func TestSimulatorStepZeroAllocs(t *testing.T) {
	memBound := sim.Default()
	memBound.ROBEntries, memBound.MemLatFirst = 64, 200
	for _, tc := range []struct {
		bench string
		cfg   sim.Config
	}{
		{"gzip", sim.Default()},
		{"mcf", memBound},
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
