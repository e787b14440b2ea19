package analysis_test

import (
	"bytes"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pbsim/internal/analysis"
)

var updateGolden = flag.Bool("update-md", false, "rewrite the markdown golden from current WriteMarkdown output")

// TestWriteMarkdownGolden pins the -md rendering byte-for-byte: the
// per-rule count table with its totals row, the active-findings list,
// and the waiver ledger. The fixture covers both finding states so a
// formatting regression in any table shows up as a golden diff.
func TestWriteMarkdownGolden(t *testing.T) {
	diags := []analysis.Diagnostic{
		mkDiag("errflow", "pbsim/internal/a", "First", "error from step assigned to err is overwritten before any check on at least one path; handle or explicitly discard the first error", 14),
		mkDiag("nopanic", "pbsim/internal/a", "Frob", "panic reachable in library code", 30),
		mkDiag("nopanic", "pbsim/internal/b", "Grind", "panic reachable in library code via helper", 8),
		mkDiag("purity", "pbsim/internal/b", "Seed", "pure-marked function b.Seed mutates state outside its frame", 3),
		mkDiag("errdiscard", "pbsim/internal/b", "Close", "call discards its error result", 51),
	}
	diags[4].Suppressed = true
	diags[4].Reason = "close error is unreachable by contract"

	var buf bytes.Buffer
	analysis.WriteMarkdown(&buf, "", diags)

	golden := filepath.Join("testdata", "markdown.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-md to create)", err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("markdown output drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWriteStats covers the -stats renderings: the plain table, the
// markdown table, and the JSON block — all three must report the load
// phase, name every rule in suite order and survive a nil stats
// (no-stats run) silently.
func TestWriteStats(t *testing.T) {
	stats := &analysis.RunStats{
		Load:      analysis.LoadStats{Wall: 1250 * time.Millisecond, Module: 43, Std: 222},
		FactBuild: 12 * time.Millisecond,
		Rules: []analysis.RuleStat{
			{Rule: "determinism", Time: 1500 * time.Microsecond, Findings: 2},
			{Rule: "errflow", Time: 25 * time.Millisecond, Findings: 0},
		},
		RuleWall: 9 * time.Millisecond,
		RuleSeq:  26500 * time.Microsecond,
		Workers:  4,
	}

	var plain bytes.Buffer
	analysis.WriteStats(&plain, stats)
	for _, want := range []string{
		"load: 1250.0ms, 43 module + 222 std package(s)\n",
		"fact build: 12.0ms\n", "determinism", "2 finding(s)", "errflow",
		"rule phase: 9.0ms wall on 4 worker(s), 26.5ms sequential",
	} {
		if !strings.Contains(plain.String(), want) {
			t.Errorf("plain stats missing %q:\n%s", want, plain.String())
		}
	}

	var md bytes.Buffer
	analysis.WriteStatsMarkdown(&md, stats)
	for _, want := range []string{
		"### pbcheck timing", "load: 1250.0ms, 43 module + 222 std package(s)\n",
		"| determinism | 1.5ms | 2 |", "| errflow | 25.0ms | 0 |",
		"fact build: 12.0ms\n", "rule phase: 9.0ms wall on 4 worker(s)",
	} {
		if !strings.Contains(md.String(), want) {
			t.Errorf("markdown stats missing %q:\n%s", want, md.String())
		}
	}

	var js bytes.Buffer
	if err := analysis.WriteJSON(&js, "", nil, stats); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"load_ms": 1250`,
		`"fact_build_ms": 12`, `"rule": "determinism"`, `"findings": 2`,
		`"rule_wall_ms": 9`, `"rule_sequential_ms": 26.5`, `"workers": 4`,
	} {
		if !strings.Contains(js.String(), want) {
			t.Errorf("JSON stats missing %q:\n%s", want, js.String())
		}
	}
	if strings.Contains(js.String(), "points_to") {
		t.Errorf("JSON stats still report the removed points-to timer:\n%s", js.String())
	}

	var empty bytes.Buffer
	analysis.WriteStats(&empty, nil)
	analysis.WriteStatsMarkdown(&empty, nil)
	if empty.Len() != 0 {
		t.Errorf("nil stats wrote %q; a no-stats run must add nothing", empty.String())
	}
	var noStats bytes.Buffer
	if err := analysis.WriteJSON(&noStats, "", nil, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(noStats.String(), "stats") {
		t.Errorf("nil stats leaked into JSON:\n%s", noStats.String())
	}
}

// TestEnclosingFuncShapes pins the identity names findings carry for
// every receiver shape: plain functions, value and pointer receivers,
// generic receivers (type parameters dropped), and positions inside
// nested function literals, which must resolve to the DECLARED
// function whose body lexically contains them.
func TestEnclosingFuncShapes(t *testing.T) {
	const src = `package shapes

type Box struct{}
type Gen[T any] struct{}

func Plain() { plainMark() }

func (b Box) Value() { valueMark() }

func (b *Box) Pointer() { pointerMark() }

func (g *Gen[T]) Get() { genericMark() }

func Outer() {
	f := func() {
		g := func() { nestedMark() }
		g()
	}
	f()
}

var sink = 0
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "shapes.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &analysis.Package{Fset: fset, Files: []*ast.File{file}}

	pos := func(marker string) token.Pos {
		idx := strings.Index(src, marker)
		if idx < 0 {
			t.Fatalf("marker %q not in source", marker)
		}
		return fset.File(file.Package).Pos(idx)
	}
	cases := []struct {
		marker, want string
	}{
		{"plainMark", "Plain"},
		{"valueMark", "Box.Value"},
		{"pointerMark", "Box.Pointer"},
		{"genericMark", "Gen.Get"},
		{"nestedMark", "Outer"},
		{"var sink", ""},
	}
	for _, c := range cases {
		if got := pkg.EnclosingFunc(pos(c.marker)); got != c.want {
			t.Errorf("EnclosingFunc(at %q) = %q, want %q", c.marker, got, c.want)
		}
	}
}
