package analysis_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"pbsim/internal/analysis"
	"pbsim/internal/analysis/rules"
)

// TestDeterministicOrdering pins the byte-stability contract the
// findings diff and the -json artifact depend on: the same
// packages analyzed in any load order produce identical plain and
// JSON output. The two seeded packages each produce findings, so a
// sort regression would actually reorder something.
func TestDeterministicOrdering(t *testing.T) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, d := range []string{"lockflow", "leakygo"} {
		abs, err := filepath.Abs(filepath.Join("rules", "testdata", d))
		if err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, abs)
	}
	pkgs, err := loader.Load(dirs)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("got %d packages, want 2", len(pkgs))
	}
	reversed := []*analysis.Package{pkgs[1], pkgs[0]}

	render := func(order []*analysis.Package) (string, string) {
		diags := runSuite(t, order, loader.Universe())
		var plain, js bytes.Buffer
		analysis.WritePlain(&plain, loader.Root, diags, true)
		if err := analysis.WriteJSON(&js, loader.Root, diags, nil); err != nil {
			t.Fatal(err)
		}
		return plain.String(), js.String()
	}

	plainFwd, jsonFwd := render(pkgs)
	plainRev, jsonRev := render(reversed)
	if plainFwd == "" {
		t.Fatal("seeded packages produced no plain output; the ordering test needs findings to order")
	}
	if plainFwd != plainRev {
		t.Errorf("plain output depends on package order:\n--- forward ---\n%s--- reversed ---\n%s", plainFwd, plainRev)
	}
	if jsonFwd != jsonRev {
		t.Errorf("JSON output depends on package order:\n--- forward ---\n%s--- reversed ---\n%s", jsonFwd, jsonRev)
	}
}

// TestWorkerCountInvariance pins the parallel driver's contract: any
// phase-2 worker count yields byte-identical diagnostics — only the
// timing fields may move.
func TestWorkerCountInvariance(t *testing.T) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, d := range []string{"lockflow", "leakygo", "errflow"} {
		abs, err := filepath.Abs(filepath.Join("rules", "testdata", d))
		if err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, abs)
	}
	pkgs, err := loader.Load(dirs)
	if err != nil {
		t.Fatal(err)
	}
	render := func(workers int) string {
		diags, stats, err := analysis.RunUniverseTimedWorkers(pkgs, loader.Universe(), rules.Suite(), workers)
		if err != nil {
			t.Fatal(err)
		}
		if workers >= 1 && stats.Workers > workers {
			t.Errorf("stats.Workers = %d, want at most the requested %d", stats.Workers, workers)
		}
		var plain bytes.Buffer
		analysis.WritePlain(&plain, loader.Root, diags, true)
		return plain.String()
	}
	sequential := render(1)
	if sequential == "" {
		t.Fatal("seeded packages produced no output; the invariance test needs findings to compare")
	}
	for _, workers := range []int{2, 8, 0} {
		if got := render(workers); got != sequential {
			t.Errorf("output at %d workers differs from sequential:\n--- parallel ---\n%s--- sequential ---\n%s", workers, got, sequential)
		}
	}
}
