package sim

import "testing"

// prewarmedGzip returns a prewarmed default CPU over gzip's stream.
func prewarmedGzip(t *testing.T) *CPU {
	t.Helper()
	cpu, err := New(Default(), testGen(t, "gzip"), nil)
	if err != nil {
		t.Fatal(err)
	}
	cpu.PrewarmMemory()
	return cpu
}

// TestReleaseIdempotent: GIVEN a CPU that has run, WHEN it is released
// twice and two CPUs are then built side by side, THEN the second
// Release handed out nothing: each of the two owns its arrays, and
// both run the stream to the statistics of a CPU that never met a
// recycled array.
func TestReleaseIdempotent(t *testing.T) {
	want := runConfig(t, Default(), "gzip", 3000)
	cpu := prewarmedGzip(t)
	if _, err := cpu.Run(3000); err != nil {
		t.Fatal(err)
	}
	cpu.Release()
	cpu.Release()
	a, b := prewarmedGzip(t), prewarmedGzip(t)
	for i, c := range []*CPU{a, b} {
		got, err := c.Run(3000)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("CPU %d built after a double Release gives\n%+v\nwant\n%+v", i, got, want)
		}
	}
}

// TestReleasedCPUPanicsOnRun: GIVEN a released CPU, WHEN it runs
// again, THEN it panics instead of simulating on arrays another CPU
// may now own.
func TestReleasedCPUPanicsOnRun(t *testing.T) {
	cpu := prewarmedGzip(t)
	if _, err := cpu.Run(1000); err != nil {
		t.Fatal(err)
	}
	cpu.Release()
	defer func() {
		if recover() == nil {
			t.Error("Run on a released CPU did not panic")
		}
	}()
	_, _ = cpu.Run(2000)
}
