package analysis_test

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pbsim/internal/analysis"
	"pbsim/internal/analysis/rules"
)

// runSuite runs the full rule suite over pkgs, with universe feeding
// the fact engine, through the pbcheck driver at its default worker
// count.
func runSuite(t *testing.T, pkgs, universe []*analysis.Package) []analysis.Diagnostic {
	t.Helper()
	diags, _, err := analysis.RunUniverseTimedWorkers(pkgs, universe, rules.Suite(), analysis.DefaultWorkers())
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// TestFrameworkImportsStdlibOnly pins the ISSUE's central constraint:
// the analysis framework, its rules, and the pbcheck driver are built
// from the Go standard library alone — go/parser, go/ast, go/types,
// go/token and friends — with no golang.org/x/tools (or any other
// module) dependency. Intra-framework imports are the only non-stdlib
// paths allowed.
func TestFrameworkImportsStdlibOnly(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs := []string{
		"internal/analysis",
		"internal/analysis/rules",
		"cmd/pbcheck",
	}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		entries, err := os.ReadDir(filepath.Join(root, dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			path := filepath.Join(root, dir, e.Name())
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if strings.HasPrefix(p, "pbsim/") {
					if !strings.HasPrefix(p, "pbsim/internal/analysis") {
						t.Errorf("%s/%s imports %s: the framework may not depend on the rest of the repository", dir, e.Name(), p)
					}
					continue
				}
				if first := strings.SplitN(p, "/", 2)[0]; strings.Contains(first, ".") {
					t.Errorf("%s/%s imports %s: the framework must be stdlib-only", dir, e.Name(), p)
				}
			}
		}
	}
}

// TestExpandPatterns exercises the ./... walker: testdata, vendor,
// and hidden directories are pruned from recursive patterns, while an
// explicit testdata path still resolves (the golden tests depend on
// that).
func TestExpandPatterns(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := analysis.ExpandPatterns(root, "pbsim", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("./... expanded to no directories")
	}
	sawAnalysis := false
	for _, d := range dirs {
		rel, err := filepath.Rel(root, d)
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range strings.Split(filepath.ToSlash(rel), "/") {
			if seg == "testdata" {
				t.Errorf("./... included testdata directory %s", rel)
			}
		}
		if filepath.ToSlash(rel) == "internal/analysis" {
			sawAnalysis = true
		}
	}
	if !sawAnalysis {
		t.Error("./... did not include internal/analysis")
	}

	explicit, err := analysis.ExpandPatterns(root, "pbsim",
		[]string{"./internal/analysis/rules/testdata/ignore"})
	if err != nil {
		t.Fatal(err)
	}
	if len(explicit) != 1 {
		t.Fatalf("explicit testdata path expanded to %v, want exactly itself", explicit)
	}

	// A recursive pattern matches when its packages were already
	// matched by an earlier one, and fails when no directory under it
	// holds a non-test Go file.
	if _, err := analysis.ExpandPatterns(root, "pbsim", []string{"./...", "./internal/analysis/..."}); err != nil {
		t.Errorf("overlapping recursive patterns: %v", err)
	}
	empty := writeTree(t, "m", map[string]string{
		"docs/README.md":     "notes\n",
		"docs/sub/a_test.go": "package sub\n",
		"docs/testdata/a.go": "package a\n",
	})
	for _, pat := range []string{"./docs/...", "m/docs/...", "./..."} {
		_, err := analysis.ExpandPatterns(empty, "m", []string{pat})
		want := fmt.Sprintf("analysis: pattern %q matched no packages", pat)
		if err == nil || err.Error() != want {
			t.Errorf("ExpandPatterns(%q) error = %v, want %q", pat, err, want)
		}
	}
}

// TestRelPosition covers the three filename cases the formatters rely
// on: inside root (relativized), outside root (left absolute), and
// already relative (untouched).
func TestRelPosition(t *testing.T) {
	root := string(filepath.Separator) + filepath.Join("repo", "mod")
	cases := []struct{ file, want string }{
		{filepath.Join(root, "pkg", "f.go"), "pkg/f.go"},
		{string(filepath.Separator) + filepath.Join("elsewhere", "f.go"),
			string(filepath.Separator) + filepath.Join("elsewhere", "f.go")},
		{"already/relative.go", "already/relative.go"},
	}
	for _, tc := range cases {
		if got := analysis.RelPosition(root, tc.file); got != tc.want {
			t.Errorf("RelPosition(%q, %q) = %q, want %q", root, tc.file, got, tc.want)
		}
	}
}
