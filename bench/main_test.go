package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the smoke tests re-execute it as a rep's child process.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

func lastLine(t *testing.T, out string) summaryLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var s summaryLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("last line is not the JSON summary: %v\n%s", err, out)
	}
	return s
}

func TestBenchmarkJSONAgreesWithProgram(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(spec.Command, []string{"bash", "bench/run.sh"}) || !slices.Equal(spec.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", spec.Command, spec.Paths)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", spec.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads %v, program has %v", names, workloadNames())
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, program reports %d", len(spec.EndToEnd), len(endToEnd))
	}
	var maxBound float64
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %s %s %s, program reports %+v", i, m.Name, m.Unit, m.Better, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	defs := perLayer()
	if len(spec.PerLayer) != len(defs) {
		t.Fatalf("%d per-layer metrics, program reports %d", len(spec.PerLayer), len(defs))
	}
	for i, m := range spec.PerLayer {
		if d := defs[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %s %s %s, program reports %+v", i, m.Name, m.Unit, m.Better, d)
		}
	}
}

// TestSmokeEveryWorkload runs every workload, smoke-sized, through the
// full path: interleaved reps in re-executed children, the traced rep
// with its row replay, the report and the summary line.
func TestSmokeEveryWorkload(t *testing.T) {
	tmp := t.TempDir()
	var out bytes.Buffer
	code := benchMain([]string{"-short", "-seconds", "1", "-trace", "1", "-repo", "..", "-out", tmp, "-testdata", tmp}, &out)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out.String())
	}
	s := lastLine(t, out.String())
	if !s.Correct || s.Failed != 0 || s.Attempted < 2*len(workloadNames()) {
		t.Fatalf("summary %+v", s)
	}
	for _, w := range workloadNames() {
		for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
			if !strings.Contains(out.String(), w+" "+m.Name+" ") {
				t.Errorf("no %s %s line", w, m.Name)
			}
		}
		if _, ok := s.Metrics[w+"/bench.trace_overhead_pct"]; !ok {
			t.Errorf("summary lacks %s per-layer metrics", w)
		}
		if _, err := os.Stat(filepath.Join(tmp, "trace-"+w+".json")); err != nil {
			t.Error(err)
		}
	}
	for _, m := range []string{"table9-full/sim.ipc", "table9-dist/dist.commits", "table9-sampled/sampling.spearman", "lint-sweep/analysis.packages"} {
		if s.Metrics[m].Value <= 0 {
			t.Errorf("%s = %v, want > 0", m, s.Metrics[m].Value)
		}
	}
	results, err := loadResult(filepath.Join(tmp, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(results["table9-full"].Metrics["wall_s"].Samples); got < 1 {
		t.Errorf("result.json holds %d wall_s samples", got)
	}
}

// TestGoldenMismatchFailsTheRep forces a wrong golden digest: every rep
// must count as failed and the run must exit 1.
func TestGoldenMismatchFailsTheRep(t *testing.T) {
	tmp := t.TempDir()
	w, err := findWorkload("table9-full", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(filepath.Join(tmp, goldenFile), map[string]goldenEntry{
		w.Name: {Config: w.config(), Digest: "0000000000000000"},
	}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code := benchMain([]string{"-workload", w.Name, "-short", "-seconds", "1", "-trace", "0", "-repo", "..", "-out", tmp, "-testdata", tmp}, &out)
	if code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	s := lastLine(t, out.String())
	if s.Correct || s.Attempted == 0 || s.Failed != s.Attempted {
		t.Errorf("summary %+v, want every rep failed", s)
	}
	if !strings.Contains(out.String(), w.Name+" fail_frac 1 ratio") {
		t.Errorf("fail_frac is not 1:\n%s", out.String())
	}
}
