package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pbsim/internal/enhance"
	"pbsim/internal/workload"
)

// table12Options is the X=44 foldover suite over gzip and mcf that
// testdata/table12.golden pins.
func table12Options(t *testing.T, enh enhance.Spec) Options {
	t.Helper()
	var ws []workload.Workload
	for _, name := range []string{"gzip", "mcf"} {
		w, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	return Options{Instructions: 2000, Warmup: 1000, Foldover: true, Workloads: ws, Enhance: enh}
}

// TestTable12Golden pins the enhanced suites bit for bit: every %.17g
// response, the sums of ranks and the resulting order, as recorded
// when each enhancement was still a hand-written factory that profiled
// the first warmup+n instructions.
func TestTable12Golden(t *testing.T) {
	var b strings.Builder
	for _, enh := range []enhance.Spec{precompute128, valueReuse128} {
		suite, err := RunSuite(table12Options(t, enh))
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range suite.Results {
			fmt.Fprintf(&b, "%s %s:", enh, suite.Benchmarks[i])
			for _, v := range r.Responses {
				fmt.Fprintf(&b, " %.17g", v)
			}
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "%s sums: %v\n", enh, suite.Sums)
		fmt.Fprintf(&b, "%s order: %v\n", enh, suite.Order)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "table12.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d golden lines, want %d", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("table12.golden line %d drifted:\ngot:  %.120s\nwant: %.120s", i+1, got[i], wantLines[i])
		}
	}
}

// The fingerprint's label is the enhancement's canonical string, so an
// enhanced suite can never resume a base campaign's rows (or another
// enhancement's). The pinned strings are those of the label-and-factory
// options with the benchmark list appended.
func TestFingerprintsDistinguishEnhancements(t *testing.T) {
	want := map[enhance.Spec]string{
		{}:            "pb:x=44,foldover=true,runs=88|n=2000|warmup=1000|label=base|benchmarks=gzip,mcf",
		precompute128: "pb:x=44,foldover=true,runs=88|n=2000|warmup=1000|label=precompute-128|benchmarks=gzip,mcf",
		valueReuse128: "pb:x=44,foldover=true,runs=88|n=2000|warmup=1000|label=valuereuse-128|benchmarks=gzip,mcf",
	}
	seen := map[string]enhance.Spec{}
	for enh, fp := range want {
		man, err := CampaignManifest(table12Options(t, enh))
		if err != nil {
			t.Fatal(err)
		}
		if man.Fingerprint != fp {
			t.Errorf("%s fingerprint = %q, want %q", enh, man.Fingerprint, fp)
		}
		if other, dup := seen[man.Fingerprint]; dup {
			t.Errorf("%s and %s share fingerprint %q", enh, other, man.Fingerprint)
		}
		seen[man.Fingerprint] = enh
	}
}
