package analysis

import (
	"bytes"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var purgeCases = []struct {
	name, src, want string
}{
	{"function body",
		"func f() int {\n\treturn 1\n}\n",
		"func f() int {\n\n}\n"},
	{"method body",
		"func (t *T) M() { t.n++ }\n",
		"func (t *T) M() {}\n"},
	{"braces in comments",
		"// {\n/* } */ func f() { /* } */ x() // }\n}\n",
		"// {\n/* } */ func f() {\n}\n"},
	{"braces in strings",
		"var s = \"{\"\nfunc f() { s := \"}\\\"}\"; _ = s }\n",
		"var s = \"{\"\nfunc f() {}\n"},
	{"braces in runes",
		"var r = '{'\nfunc f() { a, b, c := '}', '\\'', '\\\\'; _ = '{' }\n",
		"var r = '{'\nfunc f() {}\n"},
	{"braces and newlines in raw strings",
		"var s = `{`\nfunc f() {\n\ts := `}\n{`\n}\n",
		"var s = `{`\nfunc f() {\n\n\n}\n"},
	{"nested struct and interface types",
		"type T struct {\n\ta struct{ b int }\n\tc interface{ M() struct{} }\n}\n",
		"type T struct {\n\ta struct{ b int }\n\tc interface{ M() struct{} }\n}\n"},
	{"comment between keyword and brace",
		"type T struct /* c */ {\n\ta int\n}\ntype I interface // c\n{\n\tM()\n}\n",
		"type T struct /* c */ {\n\ta int\n}\ntype I interface // c\n{\n\tM()\n}\n"},
	{"struct-typed result",
		"func f() struct{ a int } {\n\treturn struct{ a int }{1}\n}\n",
		"func f() struct{ a int } {\n\n}\n"},
	{"generic constraint",
		"func F[T interface{ ~int }](x T) T {\n\treturn x\n}\n",
		"func F[T interface{ ~int }](x T) T {\n\n}\n"},
	{"identifier ending in struct",
		"var x = mystruct{1}\n",
		"var x = mystruct{}\n"},
	{"table literals",
		"var m = map[string]int{\"a\": 1}\nvar s = struct{ a int }{1}\n",
		"var m = map[string]int{}\nvar s = struct{ a int }{}\n"},
	{"unkeyed [...] literal",
		"var a = [...]int{1, 2, 3}\n",
		"var a = [3]int{}\n"},
	{"unkeyed [...] literal, trailing comma",
		"var a = [...]string{\n\t\"x\",\n\t\"y\",\n}\n",
		"var a = [2]string{\n\n\n}\n"},
	{"empty [...] literal",
		"var a = [...]int{ /* 1, 2 */ }\n",
		"var a = [0]int{}\n"},
	{"[...] literal of composite elements",
		"var a = [...][2]int{{1, 2}, {3, 4}, /* 5, */ {f(6, 7)}}\n",
		"var a = [3][2]int{}\n"},
	{"[...] literal of struct elements",
		"var a = [...]struct{ a, b int }{{1, 2}, {b: 3}}\n",
		"var a = [2]struct{ a, b int }{}\n"},
	{"keyed [...] literal",
		"var a = [...]int{5: 1, 2}\n",
		"var a = [...]int{5: 1, 2}\n"},
	{"func literal in var initializer",
		"var f = func() int {\n\treturn 1\n}()\nvar g = sync.OnceValue(func() []int { return []int{1} })\n",
		"var f = func() int {\n\n}()\nvar g = sync.OnceValue(func() []int {})\n"},
}

func TestPurgeBodies(t *testing.T) {
	for _, c := range purgeCases {
		t.Run(c.name, func(t *testing.T) {
			if got := string(purgeBodies([]byte(c.src))); got != c.want {
				t.Errorf("purgeBodies(%q)\n got %q\nwant %q", c.src, got, c.want)
			}
		})
	}
}

// FuzzPurgeBodies checks that purging keeps every newline and, for
// source that parses, yields source that parses to the same top-level
// declarations.
func FuzzPurgeBodies(f *testing.F) {
	for _, c := range purgeCases {
		f.Add([]byte("package p\n" + c.src))
	}
	for _, name := range []string{"math/rand/rng.go", "container/list/list.go", "strings/builder.go", "sync/once.go", "errors/wrap.go"} {
		src, err := os.ReadFile(filepath.Join(build.Default.GOROOT, "src", filepath.FromSlash(name)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		out := purgeBodies(src)
		if got, want := bytes.Count(out, []byte("\n")), bytes.Count(src, []byte("\n")); got != want {
			t.Fatalf("purged source has %d newlines, want %d", got, want)
		}
		in, err := parser.ParseFile(token.NewFileSet(), "in.go", src, parser.SkipObjectResolution)
		if err != nil {
			return
		}
		purged, err := parser.ParseFile(token.NewFileSet(), "out.go", out, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("purged source does not parse: %v\n%s", err, out)
		}
		if got, want := declNames(purged), declNames(in); got != want {
			t.Fatalf("purged declarations\n%s\nwant\n%s", got, want)
		}
	})
}

// declNames lists a file's top-level declared names, one line each.
func declNames(file *ast.File) string {
	var names []string
	for _, decl := range file.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			name := decl.Name.Name
			if decl.Recv != nil && len(decl.Recv.List) > 0 {
				name = types.ExprString(decl.Recv.List[0].Type) + "." + name
			}
			names = append(names, name)
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.ImportSpec:
					names = append(names, spec.Path.Value)
				case *ast.TypeSpec:
					names = append(names, spec.Name.Name)
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						names = append(names, id.Name)
					}
				}
			}
		}
	}
	return strings.Join(names, "\n")
}

// TestPurgeKeepsExportSurface checks every standard-library package in
// the module's import closure twice, from purged source as Load does
// and from its files as written, against the same dependencies. Both
// checks must declare the same package scope, object for object, with
// the same constant values and the same method sets.
func TestPurgeKeepsExportSurface(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := ExpandPatterns(l.Root, l.Module, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Load(dirs); err != nil {
		t.Fatal(err)
	}
	var std []*node
	for _, n := range l.nodes {
		if n.std {
			std = append(std, n)
		}
	}
	sort.Slice(std, func(i, j int) bool { return std[i].path < std[j].path })
	if len(std) == 0 {
		t.Fatal("the module imports no standard-library package")
	}
	for _, n := range std {
		if n.err != nil {
			t.Errorf("purged check: %v", n.err)
			continue
		}
		var files []*ast.File
		for _, name := range n.names {
			file, err := parser.ParseFile(l.fset, filepath.Join(n.dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, file)
		}
		full, err := l.checkStd(n, files)
		if err != nil {
			t.Errorf("unpurged check: %v", err)
			continue
		}
		got, want := exportSurface(n.types), exportSurface(full)
		for i := range max(len(got), len(want)) {
			var g, w string
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				t.Errorf("%s: purged source declares\n\t%s\nwhere the files declare\n\t%s", n.path, g, w)
				break
			}
		}
	}
}

// exportSurface describes pkg's scope: each object's ObjectString,
// with the value of a constant and the method sets of a defined type
// T and of *T.
func exportSurface(pkg *types.Package) []string {
	var lines []string
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		line := types.ObjectString(obj, nil)
		if c, ok := obj.(*types.Const); ok {
			line += " = " + c.Val().ExactString()
		}
		lines = append(lines, line)
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			for _, typ := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
				mset := types.NewMethodSet(typ)
				for i := range mset.Len() {
					lines = append(lines, "\t"+mset.At(i).String())
				}
			}
		}
	}
	return lines
}
