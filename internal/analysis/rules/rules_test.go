package rules_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pbsim/internal/analysis"
	"pbsim/internal/analysis/rules"
)

var update = flag.Bool("update", false, "rewrite the expect.txt goldens from current analyzer output")

// The loader is shared across subtests: type-checking the seeded
// packages pulls in their standard-library dependencies from
// GOROOT/src, and one loader amortizes that cost over the whole suite.
var (
	loaderOnce sync.Once
	loader     *analysis.Loader
	loaderErr  error
)

func sharedLoader(t *testing.T) *analysis.Loader {
	t.Helper()
	loaderOnce.Do(func() { loader, loaderErr = analysis.NewLoader(".") })
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loader
}

// runDir loads one testdata package and runs the named rules (all
// when ruleList is empty) over it.
func runDir(t *testing.T, dir, ruleList string) []analysis.Diagnostic {
	t.Helper()
	abs, err := filepath.Abs(filepath.Join("testdata", dir))
	if err != nil {
		t.Fatalf("abs %s: %v", dir, err)
	}
	pkgs, err := sharedLoader(t).Load([]string{abs})
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("load %s: got %d packages, want 1", dir, len(pkgs))
	}
	analyzers, unknown := rules.Select(ruleList)
	if len(unknown) > 0 {
		t.Fatalf("unknown rules in %q: %v", ruleList, unknown)
	}
	return run(t, pkgs, analyzers)
}

// run runs analyzers over pkgs through the pbcheck driver. The shared
// loader's universe carries every dependency package parsed so far
// (including other testdata packages from earlier subtests — harmless:
// facts for the analyzed package derive only from its own call graph),
// exactly as pbcheck wires it.
func run(t *testing.T, pkgs []*analysis.Package, analyzers []*analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	diags, _, err := analysis.RunUniverseTimedWorkers(pkgs, sharedLoader(t).Universe(), analyzers, analysis.DefaultWorkers())
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// TestGolden locks every analyzer's exact diagnostic positions and
// messages against seeded-violation packages. Each testdata directory
// holds one package plus an expect.txt golden in the plain output
// format (suppressed findings shown and annotated). Regenerate with
//
//	go test ./internal/analysis/rules -run TestGolden -update
//
// and review the diff: a golden change is an analyzer behavior change.
func TestGolden(t *testing.T) {
	cases := []struct {
		dir   string // under testdata/
		rules string // comma-separated; "" = whole suite
	}{
		{"determinism/pb", "determinism"},
		{"nopanic/lib", "nopanic"},
		{"nopanic/main", "nopanic"},
		{"floateq/other", "floateq"},
		{"floateq/stats", "floateq"},
		{"errdiscard", "errdiscard"},
		{"ctxflow", "ctxflow"},
		{"ignore", ""},
		{"hotalloc", "hotalloc"},
		{"leakygo", "leakygo"},
		{"purity", "purity"},
		{"lockflow", "lockflow"},
		{"errflow", "errflow"},
		// The interprocedural golden: only facts/sim is analyzed; flow
		// and clock enter the universe as dependencies, so every
		// finding crosses at least one package boundary.
		{"facts/sim", "determinism,nopanic,hotalloc,purity"},
	}
	for _, tc := range cases {
		t.Run(strings.ReplaceAll(tc.dir, "/", "_"), func(t *testing.T) {
			diags := runDir(t, tc.dir, tc.rules)
			abs, err := filepath.Abs(filepath.Join("testdata", tc.dir))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			analysis.WritePlain(&buf, abs, diags, true)
			golden := filepath.Join("testdata", tc.dir, "expect.txt")
			if *update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got := buf.String(); got != string(want) {
				t.Errorf("diagnostics differ from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}
		})
	}
}

// TestAllKeepsRetiredSlots holds the benchmark's rule list to the
// suite: All is Suite with the three retired rules in their old slots,
// and over a package with findings it reports exactly what Suite does.
func TestAllKeepsRetiredSlots(t *testing.T) {
	var names []string
	for _, a := range rules.All() {
		names = append(names, a.Name)
	}
	want := "determinism nopanic floateq errdiscard ctxflow hotalloc locksafe leakygo purity lockflow errflow racecheck chansafe"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("All() = %s\nwant    %s", got, want)
	}
	abs, err := filepath.Abs(filepath.Join("testdata", "lockflow"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := sharedLoader(t).Load([]string{abs})
	if err != nil {
		t.Fatal(err)
	}
	report := func(analyzers []*analysis.Analyzer) string {
		var buf bytes.Buffer
		analysis.WritePlain(&buf, abs, run(t, pkgs, analyzers), true)
		return buf.String()
	}
	if all, suite := report(rules.All()), report(rules.Suite()); all != suite {
		t.Errorf("All reports\n%s\nSuite reports\n%s", all, suite)
	}
}

// TestSuppression pins the //pbcheck:ignore contract beyond the
// golden: a reasonless or ruleless marker is itself a diagnostic
// under the unsuppressible "ignore" rule, valid waivers suppress and
// carry their reason, and coverage stops at the line below the
// comment.
func TestSuppression(t *testing.T) {
	diags := runDir(t, "ignore", "")

	byRule := make(map[string][]analysis.Diagnostic)
	for _, d := range diags {
		byRule[d.Rule] = append(byRule[d.Rule], d)
	}

	ignores := byRule[analysis.IgnoreRule]
	if len(ignores) != 4 {
		t.Fatalf("got %d ignore diagnostics, want 4 (missing reason, missing rule, unknown rule, stale waiver): %+v", len(ignores), ignores)
	}
	wantFragments := []string{"needs a reason", "needs a rule", "unknown rule", "stale //pbcheck:ignore"}
	for _, frag := range wantFragments {
		found := false
		for _, d := range ignores {
			if strings.Contains(d.Message, frag) {
				found = true
				if d.Suppressed {
					t.Errorf("ignore diagnostic %q is suppressed; the ignore rule must be unsuppressible", d.Message)
				}
			}
		}
		if !found {
			t.Errorf("no ignore diagnostic mentions %q; got %+v", frag, ignores)
		}
	}

	var suppressed, active []analysis.Diagnostic
	for _, d := range byRule["errdiscard"] {
		if d.Suppressed {
			suppressed = append(suppressed, d)
		} else {
			active = append(active, d)
		}
	}
	// SameLine and LineAbove are waived; MissingReason, MissingRule,
	// UnknownRule, and TooFar keep their findings active. TooFar's
	// waiver additionally goes stale: two lines above the call, it
	// suppresses nothing, and the stale-waiver check says so.
	if len(suppressed) != 2 {
		t.Errorf("got %d suppressed errdiscard findings, want 2: %+v", len(suppressed), suppressed)
	}
	for _, d := range suppressed {
		if d.Reason == "" {
			t.Errorf("suppressed finding at %v has no reason recorded", d.Position)
		}
	}
	if len(active) != 4 {
		t.Errorf("got %d active errdiscard findings, want 4: %+v", len(active), active)
	}
	if got := analysis.Active(diags); got != 8 {
		t.Errorf("Active = %d, want 8 (4 ignore + 4 errdiscard)", got)
	}
}
