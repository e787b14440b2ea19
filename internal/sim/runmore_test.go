package sim

import "testing"

// TestRunMorePartitionsRun pins the incremental-measurement contract:
// a run split into RunMore windows commits the same stream through the
// same pipeline state as one RunWithWarmup call, so the window totals
// reassemble the whole-run statistics exactly.
func TestRunMorePartitionsRun(t *testing.T) {
	const warmup, n = 3000, 12000
	cfg := Default()

	whole, err := func() (Stats, error) {
		cpu, err := New(cfg, testGen(t, "gzip"), nil)
		if err != nil {
			t.Fatal(err)
		}
		cpu.PrewarmMemory()
		return cpu.RunWithWarmup(warmup, n)
	}()
	if err != nil {
		t.Fatal(err)
	}

	cpu, err := New(cfg, testGen(t, "gzip"), nil)
	if err != nil {
		t.Fatal(err)
	}
	cpu.PrewarmMemory()
	if _, err := cpu.RunMore(warmup); err != nil {
		t.Fatal(err)
	}
	var sum Stats
	for _, step := range []int64{5000, 1000, 6000} {
		st, err := cpu.RunMore(step)
		if err != nil {
			t.Fatal(err)
		}
		if st.Instructions != step {
			t.Fatalf("window committed %d instructions, want %d", st.Instructions, step)
		}
		sum.Cycles += st.Cycles
		sum.Instructions += st.Instructions
		sum.Mispredicts += st.Mispredicts
		sum.Loads += st.Loads
		sum.Stores += st.Stores
	}
	if sum.Cycles != whole.Cycles || sum.Instructions != whole.Instructions {
		t.Fatalf("windowed run = %d cycles / %d instrs, whole run = %d / %d",
			sum.Cycles, sum.Instructions, whole.Cycles, whole.Instructions)
	}
	if sum.Mispredicts != whole.Mispredicts || sum.Loads != whole.Loads || sum.Stores != whole.Stores {
		t.Fatalf("windowed event counts diverge from the whole run")
	}
}

func TestRunMoreRejectsNonPositive(t *testing.T) {
	cpu, err := New(Default(), testGen(t, "gzip"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cpu.RunMore(0); err == nil {
		t.Fatal("RunMore(0) should fail")
	}
	if _, err := cpu.RunMore(-5); err == nil {
		t.Fatal("RunMore(-5) should fail")
	}
}

// TestRunRowMatchesHandLifecycle: GIVEN a full row (one window after a
// detailed warmup), a sampled group (functional warming, a detailed
// warmup, three windows) from mid-stream, and a row shorter than what
// the pipeline fetches ahead of commit (ROB + IFQ), so that fetch
// runs past the tape's end while the row's first instructions are in
// flight, WHEN RunRow runs each, THEN every window's statistics equal
// those of the same lifecycle written out by hand over a generator
// that replays no tape: RunWithWarmup for the full row, RunMore per
// window otherwise.
func TestRunRowMatchesHandLifecycle(t *testing.T) {
	cfg := Default()
	var full [1]Stats
	if err := RunRow(cfg, testGen(t, "gzip"), nil, 0, 3000, []int64{9000}, full[:]); err != nil {
		t.Fatal(err)
	}
	cpu, err := New(cfg, testGen(t, "gzip"), nil)
	if err != nil {
		t.Fatal(err)
	}
	cpu.PrewarmMemory()
	want, err := cpu.RunWithWarmup(3000, 9000)
	if err != nil {
		t.Fatal(err)
	}
	if full[0] != want {
		t.Errorf("full row:\n%+v\nwant\n%+v", full[0], want)
	}

	for _, tc := range []struct {
		name                   string
		bench                  string
		skip, funcWarm, warmup int64
		windows                []int64
	}{
		{"group", "mcf", 1234, 4000, 500, []int64{1000, 700, 1300}},
		{"row shorter than the fetch-ahead", "gzip", 311, 0, 0, []int64{12, int64(cfg.ROBEntries+cfg.IFQEntries) - 20}},
	} {
		gen := testGen(t, tc.bench)
		gen.Skip(tc.skip)
		got := make([]Stats, len(tc.windows))
		if err := RunRow(cfg, gen, nil, tc.funcWarm, tc.warmup, tc.windows, got); err != nil {
			t.Fatal(err)
		}
		hand := testGen(t, tc.bench)
		hand.Skip(tc.skip)
		if cpu, err = New(cfg, hand, nil); err != nil {
			t.Fatal(err)
		}
		cpu.PrewarmMemory()
		cpu.WarmFunctional(tc.funcWarm)
		if tc.warmup > 0 {
			if _, err := cpu.RunMore(tc.warmup); err != nil {
				t.Fatal(err)
			}
		}
		for i, n := range tc.windows {
			want, err := cpu.RunMore(n)
			if err != nil {
				t.Fatal(err)
			}
			if got[i] != want {
				t.Errorf("%s window %d:\n%+v\nwant\n%+v", tc.name, i, got[i], want)
			}
		}
	}
}

func TestRunRowRejectsBadCounts(t *testing.T) {
	out := make([]Stats, 2)
	for _, tc := range []struct {
		name             string
		funcWarm, warmup int64
		windows          []int64
	}{
		{"negative functional warmup", -1, 0, []int64{100}},
		{"negative warmup", 0, -1, []int64{100}},
		{"no window", 0, 100, nil},
		{"empty window", 0, 100, []int64{100, 0}},
		{"negative window", 0, 100, []int64{-5}},
	} {
		if err := RunRow(Default(), testGen(t, "gzip"), nil, tc.funcWarm, tc.warmup, tc.windows, out); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
