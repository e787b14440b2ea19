package analysis_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"pbsim/internal/analysis"
)

// writeTree lays out a throwaway module from module-relative file
// names and returns its root.
func writeTree(t *testing.T, module string, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module " + module + "\n\ngo 1.21\n"
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// loadTree loads the named root-relative package directories.
func loadTree(t *testing.T, root string, dirs ...string) (*analysis.Loader, []*analysis.Package, error) {
	t.Helper()
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(dirs)
	return loader, pkgs, err
}

// TestLoadImportCycle pins the cycle error: it is reported by Load,
// before any package is checked, naming the package the walk from the
// requested one re-enters. Run off the test goroutine with a deadline
// so a loader that schedules a cycle anyway fails instead of hanging.
func TestLoadImportCycle(t *testing.T) {
	root := writeTree(t, "cyc", map[string]string{
		"a/a.go": "package a\n\nimport \"cyc/b\"\n\nvar A = b.B\n",
		"b/b.go": "package b\n\nimport \"cyc/a\"\n\nvar B = a.A\n",
	})
	done := make(chan error, 1)
	go func() {
		loader, err := analysis.NewLoader(root)
		if err == nil {
			_, err = loader.Load([]string{"a"})
		}
		done <- err
	}()
	select {
	case err := <-done:
		const want = "analysis: import cycle through cyc/a"
		if err == nil || err.Error() != want {
			t.Fatalf("Load error = %v, want %q", err, want)
		}
	case <-time.After(time.Minute):
		t.Fatal("Load of an import cycle did not return within a minute")
	}
}

// TestLoadDependencyErrors pins how a broken dependency surfaces: not
// as a Load error but as a type error of its importer, with the
// dependency named — one that does not type-check, and a module
// directory with no Go files.
func TestLoadDependencyErrors(t *testing.T) {
	root := writeTree(t, "deps", map[string]string{
		"bad/bad.go":     "package bad\n\nvar X int = \"not an int\"\n",
		"user/user.go":   "package user\n\nimport \"deps/bad\"\n\nvar Y = bad.X\n",
		"empty/README":   "no Go files here\n",
		"hollow/main.go": "package hollow\n\nimport _ \"deps/empty\"\n",
	})
	_, pkgs, err := loadTree(t, root, "user", "hollow", "empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("got %d packages, want hollow and user (empty has no Go files)", len(pkgs))
	}
	for _, tc := range []struct {
		pkg  *analysis.Package
		want string
	}{
		{pkgs[0], "analysis: no Go files in deps/empty"},
		{pkgs[1], "analysis: dependency deps/bad has type errors: "},
	} {
		if len(tc.pkg.TypeErrors) == 0 || !strings.Contains(tc.pkg.TypeErrors[0].Error(), tc.want) {
			t.Errorf("%s: type errors %v, want one containing %q", tc.pkg.Path, tc.pkg.TypeErrors, tc.want)
		}
	}
}

// TestLoadModuleBuildConstraints pins one file-selection rule for
// module packages, build.Context.MatchFile, as for std and test files:
// of a _linux/_windows pair declaring the same constant only the one
// for this platform is checked, and a //go:build ignore generator in
// package main, sorting first, is not read at all.
func TestLoadModuleBuildConstraints(t *testing.T) {
	root := writeTree(t, "plat", map[string]string{
		"impl/gen.go":          "//go:build ignore\n\npackage main\n\nfunc main() {}\n",
		"impl/impl.go":         "package impl\n\nfunc Platform() string { return name }\n",
		"impl/impl_linux.go":   "package impl\n\nconst name = \"linux\"\n",
		"impl/impl_windows.go": "package impl\n\nconst name = \"windows\"\n",
		"impl/impl_other.go":   "//go:build !linux && !windows\n\npackage impl\n\nconst name = \"other\"\n",
		"app/app.go":           "package app\n\nimport \"plat/impl\"\n\nvar P = impl.Platform()\n",
	})
	_, pkgs, err := loadTree(t, root, "app", "impl")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("got %d packages, want app and impl", len(pkgs))
	}
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			t.Errorf("%s: type errors %v; want a clean package", pkg.Path, pkg.TypeErrors)
		}
	}
	if impl := pkgs[1]; impl.Types.Name() != "impl" || len(impl.Files) != 2 {
		t.Errorf("%s: package %s of %d files, want package impl of impl.go and one platform file", impl.Path, impl.Types.Name(), len(impl.Files))
	}
}

// TestLoadStdVendoredAndCgo loads a package importing net/http, whose
// dependencies include packages the standard library vendors
// (GOROOT/src/vendor/golang.org/x/...), and os/user, which has cgo
// files: both must type-check from source with cgo off.
func TestLoadStdVendoredAndCgo(t *testing.T) {
	root := writeTree(t, "stdmod", map[string]string{
		"web/web.go": `package web

import (
	"net/http"
	"os/user"
)

func Fetch(url string) (*http.Response, error) { return http.Get(url) }

func Me() (*user.User, error) { return user.Current() }
`,
	})
	loader, pkgs, err := loadTree(t, root, "web")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	if errs := pkgs[0].TypeErrors; len(errs) > 0 {
		t.Fatalf("type errors %v; want a clean package", errs)
	}
	seen := make(map[string]bool)
	stack := pkgs[0].Types.Imports()
	vendored := false
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[p.Path()] {
			continue
		}
		seen[p.Path()] = true
		vendored = vendored || strings.HasPrefix(p.Path(), "vendor/golang.org/x/")
		stack = append(stack, p.Imports()...)
	}
	if !vendored {
		t.Error("no vendor/golang.org/x/... package among the transitive imports of net/http")
	}
	if st := loader.Stats(); st.Module != 1 || st.Std < 50 {
		t.Errorf("Stats() = %+v, want 1 module package and the std closure of net/http", st)
	}
}

// TestLoadFileOrder pins the FileSet contract the position-comparing
// rules rely on: a package's files enter the FileSet in sorted name
// order, one after another, so token.Pos order within a package is
// file-name order. The determinism rule's float-accumulation check is
// one such rule: it counts a variable as declared outside a map range
// only when its position is lower than the loop's, so the finding in
// z.go on the variable declared in a.go appears only under that order.
func TestLoadFileOrder(t *testing.T) {
	files := map[string]string{
		"stats/a.go": "package stats\n\nvar total float64\n",
		"stats/z.go": "package stats\n\nfunc Sum(m map[string]float64) float64 {\n\tfor _, v := range m {\n\t\ttotal += v\n\t}\n\treturn total\n}\n",
	}
	for i := 0; i < 16; i++ {
		files[fmt.Sprintf("stats/m%02d.go", i)] = fmt.Sprintf("package stats\n\nfunc F%02d() int { return %d }\n", i, i)
	}
	root := writeTree(t, "ordmod", files)
	_, pkgs, err := loadTree(t, root, "stats")
	if err != nil {
		t.Fatal(err)
	}
	pkg := pkgs[0]
	for i := 1; i < len(pkg.Files); i++ {
		prev, cur := pkg.Fset.File(pkg.Files[i-1].Pos()), pkg.Fset.File(pkg.Files[i].Pos())
		if prev.Name() >= cur.Name() || prev.Base()+prev.Size() >= cur.Base() {
			t.Fatalf("file %s (base %d) follows %s (base %d): files must enter the FileSet in name order",
				cur.Name(), cur.Base(), prev.Name(), prev.Base())
		}
	}
	diags := runSuite(t, pkgs, nil)
	var buf bytes.Buffer
	analysis.WritePlain(&buf, root, diags, true)
	if want := "stats/z.go:5:3: determinism: accumulating float total across a map range"; !strings.Contains(buf.String(), want) {
		t.Errorf("findings lack %q:\n%s", want, buf.String())
	}
}

// TestLoadDeterministicAcrossProcs loads this repository at one and at
// four check goroutines: the report and the universe must not depend
// on how the scheduler interleaved the packages.
func TestLoadDeterministicAcrossProcs(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository twice; skipped in -short")
	}
	report := func(procs int) (string, []string) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
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
		var js bytes.Buffer
		if err := analysis.WriteJSON(&js, loader.Root, diags, nil); err != nil {
			t.Fatal(err)
		}
		var paths []string
		for _, p := range loader.Universe() {
			paths = append(paths, p.Path)
		}
		return js.String(), paths
	}
	js1, paths1 := report(1)
	js4, paths4 := report(4)
	if js1 != js4 {
		t.Errorf("WriteJSON differs between GOMAXPROCS 1 and 4:\n--- 1 ---\n%s--- 4 ---\n%s", js1, js4)
	}
	if strings.Join(paths1, "\n") != strings.Join(paths4, "\n") {
		t.Errorf("Universe differs between GOMAXPROCS 1 and 4:\n%v\n%v", paths1, paths4)
	}
}
