package workload

import (
	"reflect"
	"strings"
	"testing"

	"pbsim/internal/paperdata"
	"pbsim/internal/trace"
)

func TestSuiteMatchesPaperTable5(t *testing.T) {
	ws := All()
	if len(ws) != 13 {
		t.Fatalf("%d workloads, Table 5 lists 13", len(ws))
	}
	for i, w := range ws {
		if w.Name != paperdata.Benchmarks[i] {
			t.Errorf("workload %d = %q, Table 5 order says %q", i, w.Name, paperdata.Benchmarks[i])
		}
		if w.Type != paperdata.BenchmarkTypes[w.Name] {
			t.Errorf("%s type = %q, paper says %q", w.Name, w.Type, paperdata.BenchmarkTypes[w.Name])
		}
		if w.PaperInstrMillions != paperdata.InstructionsSimulatedM[w.Name] {
			t.Errorf("%s instruction count = %g, paper says %g",
				w.Name, w.PaperInstrMillions, paperdata.InstructionsSimulatedM[w.Name])
		}
	}
}

func TestAllParamsValidAndDistinct(t *testing.T) {
	seeds := map[uint64]string{}
	for _, w := range All() {
		if err := w.Params.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if prev, dup := seeds[w.Params.Seed]; dup {
			t.Errorf("%s and %s share a seed", w.Name, prev)
		}
		seeds[w.Params.Seed] = w.Name
		gen, err := w.NewGenerator()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		// The stream produces sane instructions.
		for i := 0; i < 1000; i++ {
			in := gen.Next()
			if in.Class >= trace.NumClasses {
				t.Fatalf("%s: bad class", w.Name)
			}
		}
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("mcf")
	if err != nil || w.Name != "mcf" {
		t.Errorf("ByName(mcf) = %v, %v", w.Name, err)
	}
	if _, err := ByName("doom"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	names := Names()
	if len(names) != 13 || names[0] != "gzip" || names[12] != "twolf" {
		t.Errorf("Names() = %v", names)
	}
}

func TestSelect(t *testing.T) {
	cases := []struct {
		list    string
		want    []string
		wantErr string
	}{
		{list: "", want: nil},
		{list: "mcf", want: []string{"mcf"}},
		{list: " gzip, mcf ", want: []string{"gzip", "mcf"}},
		{list: "gzip,doom", wantErr: `"doom"`},
	}
	for _, c := range cases {
		ws, err := Select(c.list)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("Select(%q) error = %v, want one naming %s", c.list, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("Select(%q): %v", c.list, err)
			continue
		}
		var got []string
		for _, w := range ws {
			got = append(got, w.Name)
		}
		if (ws == nil) != (c.want == nil) || !reflect.DeepEqual(got, c.want) {
			t.Errorf("Select(%q) = %q, want %q", c.list, got, c.want)
		}
	}
}

func TestCharacterization(t *testing.T) {
	// The profiles must preserve the paper's qualitative fingerprints.
	get := func(name string) Workload {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	// Memory-bound benchmarks have working sets beyond the largest L1
	// and far beyond the smallest L2 (256 KB).
	for _, n := range []string{"art", "mcf", "ammp", "vpr-Route"} {
		if ws := get(n).Params.WorkingSetBytes; ws <= 1<<20 {
			t.Errorf("%s working set %d too small for a memory-bound profile", n, ws)
		}
	}
	// twolf and gzip fit comfortably in any L2.
	for _, n := range []string{"twolf", "gzip"} {
		if ws := get(n).Params.WorkingSetBytes; ws > 256<<10 {
			t.Errorf("%s working set %d should fit the smallest L2", n, ws)
		}
	}
	// Large-code benchmarks stress the small I-cache: footprint above
	// 4 KB but within the 128 KB high value.
	for _, n := range []string{"gcc", "vortex", "mesa", "vpr-Place", "twolf"} {
		params := get(n).Params
		fp := params.CodeFootprintBytes()
		if fp <= 4<<10 || fp > 128<<10 {
			t.Errorf("%s code footprint %d outside the (4 KB, 128 KB] stress band", n, fp)
		}
	}
	// Small-code benchmarks fit even the smallest I-cache closely.
	for _, n := range []string{"gzip", "mcf", "bzip2", "ammp", "art"} {
		params := get(n).Params
		if fp := params.CodeFootprintBytes(); fp > 16<<10 {
			t.Errorf("%s code footprint %d too large for a small-code profile", n, fp)
		}
	}
	// mcf is pointer-chasing: mostly random accesses, short dependency
	// chains.
	mcf := get("mcf").Params
	if r := 1 - mcf.TemporalFrac - mcf.SeqFrac; r < 0.3 {
		t.Errorf("mcf random fraction %.2f too low", r)
	}
	if mcf.MeanDepDist > 3 {
		t.Errorf("mcf dependency distance %g too long", mcf.MeanDepDist)
	}
	// art streams sequentially.
	if art := get("art").Params; art.SeqFrac < 0.6 {
		t.Errorf("art sequential fraction %.2f too low", art.SeqFrac)
	}
	// Floating-point benchmarks have FP work in the mix; integer ones
	// essentially none.
	for _, w := range All() {
		fp := w.Params.Mix[trace.FPAdd] + w.Params.Mix[trace.FPMult] +
			w.Params.Mix[trace.FPDiv] + w.Params.Mix[trace.FPSqrt]
		if w.Type == "Floating-Point" && fp < 0.1 {
			t.Errorf("%s: FP mix %.3f too small for a floating-point benchmark", w.Name, fp)
		}
		if w.Type == "Integer" && fp > 0.05 {
			t.Errorf("%s: FP mix %.3f too large for an integer benchmark", w.Name, fp)
		}
	}
	// Every profile carries redundancy for the precomputation study.
	for _, w := range All() {
		if w.Params.RedundantFrac <= 0 || w.Params.NumCompIDs < 128 {
			t.Errorf("%s: redundancy profile too weak (%g over %d ids)",
				w.Name, w.Params.RedundantFrac, w.Params.NumCompIDs)
		}
	}
}
