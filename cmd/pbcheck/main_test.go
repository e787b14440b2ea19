package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// pbcheck runs the command in-process from the module root and returns
// its exit code, standard output and standard error.
func pbcheck(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	dir := t.TempDir()
	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	stderr, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	code := run(append([]string{"-C", "../.."}, args...), stdout, stderr)
	out, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}
	errOut, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out), string(errOut)
}

// TestTestsMode pins -tests: each requested package is analyzed with
// its _test.go files while its dependencies stay plain, so a test file
// importing a package that depends back on the one under test is not
// an import cycle. Over the whole module the findings outside test
// files must be exactly the plain run's: the test files extend their
// package in place, so calls between requested packages keep
// resolving to the functions the fact engine indexed.
func TestTestsMode(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository twice; skipped in -short")
	}
	code, out, errOut := pbcheck(t, "-tests", "./internal/sim")
	if code != 0 && code != 1 || errOut != "" {
		t.Fatalf("-tests ./internal/sim exited %d (want 0 or 1), stderr:\n%s", code, errOut)
	}
	if !strings.Contains(out, "_test.go:") {
		t.Errorf("-tests ./internal/sim reported nothing in a test file:\n%s", out)
	}

	_, plain, errOut := pbcheck(t, "-suppressed", "./...")
	if errOut != "" {
		t.Fatalf("plain run: %s", errOut)
	}
	code, tests, errOut := pbcheck(t, "-tests", "-suppressed", "./...")
	if code == 2 || errOut != "" {
		t.Fatalf("-tests ./... exited %d, stderr:\n%s", code, errOut)
	}
	var nonTest []string
	for _, line := range strings.SplitAfter(tests, "\n") {
		if file, _, _ := strings.Cut(line, ":"); !strings.HasSuffix(file, "_test.go") {
			nonTest = append(nonTest, line)
		}
	}
	if got := strings.Join(nonTest, ""); got != plain {
		t.Errorf("-tests changed the findings outside test files:\n--- plain ---\n%s--- -tests, test files dropped ---\n%s", plain, got)
	}
}

// TestExitCodes pins the contract CI gates on: 0 when every finding is
// waived or there is none, 1 when any finding is unsuppressed, and 2
// when the run cannot be made — an unknown rule or a pattern that
// matches no directory.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
		out  string // substring of stdout (code 0/1) or stderr (code 2)
	}{
		{"clean package", []string{"./internal/stats"}, 0, ""},
		{"unsuppressed finding", []string{"-rules", "errflow", "./internal/analysis/rules/testdata/errflow"}, 1, ": errflow: "},
		{"unknown rule", []string{"-rules", "nosuchrule", "./internal/stats"}, 2, "unknown rule(s) [nosuchrule]"},
		{"pattern matching nothing", []string{"./nosuch/..."}, 2, `pattern "./nosuch" does not match a directory`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, out, errOut := pbcheck(t, c.args...)
			if code != c.want {
				t.Fatalf("pbcheck %v exited %d, want %d\nstdout:\n%s\nstderr:\n%s", c.args, code, c.want, out, errOut)
			}
			got := out
			if c.want == 2 {
				got = errOut
			} else if errOut != "" {
				t.Errorf("pbcheck %v wrote to stderr:\n%s", c.args, errOut)
			}
			if c.want == 0 && out != "" {
				t.Errorf("clean run printed findings:\n%s", out)
			}
			if !strings.Contains(got, c.out) {
				t.Errorf("pbcheck %v output lacks %q:\n%s", c.args, c.out, got)
			}
		})
	}
}
