package analysis_test

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pbsim/internal/analysis"
)

func mkDiag(rule, pkg, fn, msg string, line int) analysis.Diagnostic {
	return analysis.Diagnostic{
		Rule:     rule,
		Package:  pkg,
		Func:     fn,
		Message:  msg,
		Position: token.Position{Filename: "x/f.go", Line: line, Column: 1},
	}
}

// TestBaselineRoundTrip pins the ratchet's core contract: a written
// baseline re-loads to the same fingerprint set, fingerprints are
// position-independent (line drift does not churn), and ApplyBaseline
// marks exactly the recorded findings.
func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	recorded := []analysis.Diagnostic{
		mkDiag("nopanic", "pbsim/internal/x", "Frob", "panic in library code", 10),
		mkDiag("hotalloc", "pbsim/internal/y", "Hot", "allocates: make", 20),
	}
	if err := analysis.WriteBaseline(path, recorded); err != nil {
		t.Fatal(err)
	}
	set, err := analysis.LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 {
		t.Fatalf("loaded %d fingerprints, want 2", len(set))
	}

	// Same identities at different positions, plus one new finding.
	diags := []analysis.Diagnostic{
		mkDiag("nopanic", "pbsim/internal/x", "Frob", "panic in library code", 99),
		mkDiag("hotalloc", "pbsim/internal/y", "Hot", "allocates: make", 1),
		mkDiag("leakygo", "pbsim/internal/z", "Spawn", "goroutine leaks", 5),
	}
	analysis.ApplyBaseline(diags, set)
	if !diags[0].Baselined || !diags[1].Baselined {
		t.Errorf("recorded findings not baselined despite line drift: %+v", diags[:2])
	}
	if diags[2].Baselined {
		t.Error("new finding was baselined")
	}
	if got := analysis.Active(diags); got != 1 {
		t.Errorf("Active = %d, want 1 (only the new finding)", got)
	}
}

// writeModule lays out a one-package throwaway module and returns the
// package directory.
func writeModule(t *testing.T, src string) (root, pkgDir string) {
	t.Helper()
	root = t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module driftmod\n\ngo 1.21\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pkgDir = filepath.Join(root, "drift")
	if err := os.MkdirAll(pkgDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(pkgDir, "drift.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return root, pkgDir
}

// analyzeModule runs the full suite over the module and returns the
// diagnostics.
func analyzeModule(t *testing.T, root, pkgDir string) []analysis.Diagnostic {
	t.Helper()
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load([]string{pkgDir})
	if err != nil {
		t.Fatal(err)
	}
	return runSuite(t, pkgs, loader.Universe())
}

// TestBaselineFingerprintStability is the end-to-end drift contract,
// exercised against real analyzer output instead of hand-built
// diagnostics: a baseline written from one layout of the source still
// covers the same findings after the file is reshuffled (leading
// comments, reordered declarations — every position changes), while a
// change to what the finding SAYS (here: renaming the callee, which
// every errflow message quotes) escapes the baseline loudly.
func TestBaselineFingerprintStability(t *testing.T) {
	const v1 = `package drift

import "errors"

func step(i int) error {
	if i < 0 {
		return errors.New("negative")
	}
	return nil
}

// Overwrite drops the first error: one errflow finding.
func Overwrite(a, b int) error {
	err := step(a)
	err = step(b)
	return err
}
`
	// Same identities, every position different: a comment banner,
	// reordered declarations, extra vertical space.
	const shuffled = `package drift

// A wall of leading commentary
// that shifts every declaration
// far away from its v1 line.

import "errors"

// Overwrite drops the first error: one errflow finding.
func Overwrite(a, b int) error {

	err := step(a)

	err = step(b)

	return err
}

func step(i int) error {
	if i < 0 {
		return errors.New("negative")
	}
	return nil
}
`
	root, pkgDir := writeModule(t, v1)
	before := analyzeModule(t, root, pkgDir)
	if analysis.Active(before) == 0 {
		t.Fatal("seed source produced no findings; the stability test needs one to track")
	}
	path := filepath.Join(root, "baseline.json")
	if err := analysis.WriteBaseline(path, before); err != nil {
		t.Fatal(err)
	}
	set, err := analysis.LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}

	if err := os.WriteFile(filepath.Join(pkgDir, "drift.go"), []byte(shuffled), 0o644); err != nil {
		t.Fatal(err)
	}
	after := analyzeModule(t, root, pkgDir)
	analysis.ApplyBaseline(after, set)
	if n := analysis.Active(after); n != 0 {
		t.Errorf("position shuffle escaped the baseline: %d active finding(s)", n)
		for _, d := range after {
			if !d.Suppressed && !d.Baselined {
				t.Logf("  %s: %s", d.Rule, d.Message)
			}
		}
	}

	// Message drift: the callee rename changes what the finding says,
	// so the old baseline must NOT cover it.
	renamed := strings.ReplaceAll(v1, "step", "stage")
	if err := os.WriteFile(filepath.Join(pkgDir, "drift.go"), []byte(renamed), 0o644); err != nil {
		t.Fatal(err)
	}
	drifted := analyzeModule(t, root, pkgDir)
	analysis.ApplyBaseline(drifted, set)
	if analysis.Active(drifted) == 0 {
		t.Error("message change was silently absorbed by the baseline; drift must be loud")
	}
}

// TestBaselineEdgeCases: a missing file is the empty baseline, the
// reserved ignore rule and suppressed findings are never written or
// baselined, and a corrupt file is an error rather than a universal
// approval.
func TestBaselineEdgeCases(t *testing.T) {
	set, err := analysis.LoadBaseline(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil {
		t.Fatalf("missing baseline should be empty, got error %v", err)
	}
	if len(set) != 0 {
		t.Fatalf("missing baseline loaded %d fingerprints", len(set))
	}

	path := filepath.Join(t.TempDir(), "b.json")
	supp := mkDiag("errdiscard", "p", "F", "dropped", 1)
	supp.Suppressed = true
	ign := mkDiag(analysis.IgnoreRule, "p", "F", "needs a reason", 2)
	keep := mkDiag("nopanic", "p", "G", "panics", 3)
	if err := analysis.WriteBaseline(path, []analysis.Diagnostic{supp, ign, keep, keep}); err != nil {
		t.Fatal(err)
	}
	set, err = analysis.LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 {
		t.Errorf("baseline holds %d fingerprints, want 1 (suppressed + ignore excluded, duplicate folded)", len(set))
	}

	ignored := []analysis.Diagnostic{mkDiag(analysis.IgnoreRule, "p", "F", "needs a reason", 2)}
	analysis.ApplyBaseline(ignored, map[string]bool{analysis.Fingerprint(ignored[0]): true})
	if ignored[0].Baselined {
		t.Error("the reserved ignore rule must not be baselineable")
	}

	bad := filepath.Join(t.TempDir(), "corrupt.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := analysis.LoadBaseline(bad); err == nil {
		t.Error("corrupt baseline should be an error")
	}
	wrongVer := filepath.Join(t.TempDir(), "ver.json")
	if err := os.WriteFile(wrongVer, []byte(`{"version":"other/v9","findings":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := analysis.LoadBaseline(wrongVer); err == nil {
		t.Error("wrong-version baseline should be an error")
	}
}
