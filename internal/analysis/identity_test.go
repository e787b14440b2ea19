package analysis_test

import (
	"go/token"
	"os"
	"path/filepath"
	"reflect"
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

// identities returns each active finding's (rule, package, func,
// message) key and its line.
func identities(diags []analysis.Diagnostic) (keys []string, lines []int) {
	for _, d := range diags {
		if d.Suppressed {
			continue
		}
		keys = append(keys, strings.Join([]string{d.Rule, d.Package, d.Func, d.Message}, "\x00"))
		lines = append(lines, d.Position.Line)
	}
	return keys, lines
}

// TestFindingIdentitySurvivesLineMoves pins the identity a finding
// carries apart from its position: the (rule, package, func, message)
// quadruple that the -json report's package/func keys and the lint
// benchmark's findings digest are built from. Reshuffling the file
// (leading comments, reordered declarations — every position changes)
// keeps every identity, while a change to what the finding SAYS (here:
// renaming the callee, which every errflow message quotes) changes it.
func TestFindingIdentitySurvivesLineMoves(t *testing.T) {
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
	before, beforeLines := identities(analyzeModule(t, root, pkgDir))
	if len(before) == 0 {
		t.Fatal("seed source produced no findings; the identity test needs one to track")
	}

	if err := os.WriteFile(filepath.Join(pkgDir, "drift.go"), []byte(shuffled), 0o644); err != nil {
		t.Fatal(err)
	}
	after, afterLines := identities(analyzeModule(t, root, pkgDir))
	if !reflect.DeepEqual(after, before) {
		t.Errorf("position shuffle changed finding identities:\nbefore %q\nafter  %q", before, after)
	}
	if reflect.DeepEqual(afterLines, beforeLines) {
		t.Errorf("shuffle left every finding on line %v; the test moved nothing", beforeLines)
	}

	// Message drift: the callee rename changes what the finding says,
	// so its identity must change too.
	renamed := strings.ReplaceAll(v1, "step", "stage")
	if err := os.WriteFile(filepath.Join(pkgDir, "drift.go"), []byte(renamed), 0o644); err != nil {
		t.Fatal(err)
	}
	drifted, _ := identities(analyzeModule(t, root, pkgDir))
	if len(drifted) == 0 || reflect.DeepEqual(drifted, before) {
		t.Errorf("callee rename kept the finding identities %q; a message change must show", drifted)
	}
}
