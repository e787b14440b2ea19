package analysis_test

import (
	"bytes"
	"testing"

	"pbsim/internal/analysis"
)

// TestRepositoryInvariantsHold runs the whole analyzer suite over the
// whole repository, exactly as `make lint` does: zero active findings
// is a merge requirement, and every suppression must carry a reason
// (scanSuppressions enforces that by construction — a reasonless
// marker is itself an active finding). A failure here prints the
// offending diagnostics.
func TestRepositoryInvariantsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository; skipped in -short")
	}
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := analysis.ExpandPatterns(loader.Root, loader.Module, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(dirs)
	if err != nil {
		t.Fatal(err)
	}
	diags := runSuite(t, pkgs, loader.Universe())
	if n := analysis.Active(diags); n != 0 {
		var buf bytes.Buffer
		analysis.WritePlain(&buf, loader.Root, diags, false)
		t.Errorf("repository has %d active findings; fix them or suppress with a reasoned //pbcheck:ignore:\n%s", n, buf.String())
	}
}
