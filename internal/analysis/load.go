package analysis

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// A Package is one directory of the module, parsed and type-checked.
type Package struct {
	// Path is the import path: Module + "/" + the directory's
	// module-relative path (or just Module at the root).
	Path string
	// Dir is the absolute directory the files were read from.
	Dir string
	// Name is the package clause name (e.g. "stats", "main").
	Name string

	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// TypeErrors collects everything the type checker rejected. The
	// driver treats a non-empty list as a load failure: analyzing
	// code that does not compile yields unreliable findings.
	TypeErrors []error
}

// EnclosingFunc returns the name of the function declaration enclosing
// pos — "Name" for functions, "Type.Method" for methods — or "" at
// file scope. Findings carry it so they keep their identity as lines
// drift.
func (p *Package) EnclosingFunc(pos token.Pos) string {
	for _, file := range p.Files {
		if pos < file.Pos() || pos > file.End() {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || pos < fd.Pos() || pos > fd.End() {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				recv := types.ExprString(fd.Recv.List[0].Type)
				recv = strings.TrimPrefix(recv, "*")
				if i := strings.IndexByte(recv, '['); i >= 0 {
					recv = recv[:i] // drop type parameters
				}
				name = recv + "." + name
			}
			return name
		}
	}
	return ""
}

// A Loader parses and type-checks packages of a single module, reading
// the standard library from GOROOT/src itself.
//
// Load works in two passes over one import graph whose nodes are
// module directories and standard-library import paths. Discovery
// lists each node's files and reads only their import clauses, in
// parallel across nodes, until the graph is closed; import cycles are
// rejected before anything is checked. The check pass then
// type-checks the graph in dependency order on runtime.GOMAXPROCS(0)
// goroutines, parsing each package right before its check and
// resolving its imports to the finished nodes. A package's files enter
// the shared FileSet from one goroutine in sorted name order, so
// token.Pos order within a package is file-name order, as rules that
// compare positions expect.
//
// Every package's files are selected with build.Context.MatchFile
// under the default context with cgo disabled. Standard-library
// packages are only an export surface here: their _test.go files are
// never read, their function bodies and table literals are purged
// before parsing (purgeBodies) and not checked, and their syntax is
// dropped after the check. No process is started.
//
// A Loader caches every package across Load calls and is not safe for
// concurrent use.
type Loader struct {
	// Root is the absolute path of the module root (the directory
	// holding go.mod).
	Root string
	// Module is the module path declared in go.mod.
	Module string
	// IncludeTests makes each requested package its test variant: its
	// files plus its _test.go files (external _test packages are not
	// loaded). The test files' imports resolve to the plain packages,
	// so dependencies never see test files.
	IncludeTests bool

	fset  *token.FileSet
	ctxt  build.Context
	nodes map[nodeKey]*node
	stats LoadStats
}

// LoadStats is the cost of the latest Load: its wall time and the
// module and standard-library packages it type-checked (packages an
// earlier Load checked are not counted).
type LoadStats struct {
	Wall   time.Duration
	Module int
	Std    int
}

// A nodeKey names a node of the import graph: an absolute directory
// for a module package (test marks the node holding its _test.go
// files) or an import path for a standard-library package. Import
// paths are never absolute, so the two kinds cannot collide.
type nodeKey struct {
	id   string
	test bool
}

// A node is one package of the import graph. Discovery fills the
// fields up to deps (one goroutine per node, deps under its lock); the
// scheduler's lock guards waiting and users; the check fills the
// results, which importers read only after the scheduler has released
// them.
type node struct {
	path string // package path; "vendor/..." for a vendored std package
	dir  string
	std  bool
	test bool // the _test.go files of a requested module package

	name    string   // package clause of the kept files
	names   []string // files to parse, sorted
	imports []string // distinct import paths in first-seen order
	deps    map[string]*node

	waiting int     // dependencies not yet checked
	users   []*node // nodes importing this one

	pkg   *Package       // module result; nil when there are no Go files
	types *types.Package // std result
	err   error          // discovery, parse or std type-check failure
	done  bool

	// withTests marks a module package requested under IncludeTests;
	// its checker is kept so its test files can be added to it.
	withTests bool
	checker   *types.Checker
}

// NewLoader builds a Loader rooted at the module containing dir,
// reading the module path from go.mod. It does no package work; Load
// does it all.
func NewLoader(dir string) (*Loader, error) {
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	// The standard library's exported API does not depend on cgo, and
	// with cgo off its cgo files drop out instead of being run through
	// `go tool cgo`.
	ctxt := build.Default
	ctxt.CgoEnabled = false
	return &Loader{
		Root:   root,
		Module: module,
		fset:   token.NewFileSet(),
		ctxt:   ctxt,
		nodes:  make(map[nodeKey]*node),
	}, nil
}

// FindModuleRoot walks up from dir to the nearest directory holding a
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		d = parent
	}
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module declaration in %s", gomod)
}

// Load parses and type-checks every directory in dirs (absolute or
// root-relative paths) with everything they import, returning the
// requested packages (their test variants under IncludeTests) in
// deterministic order. Directories without non-test Go files are
// skipped silently so pattern expansion can be generous. A dependency
// that fails to load surfaces as a type error of its importer.
//
// A test variant is the checked package extended in place with its
// _test.go files, after the whole graph is checked: every importer
// saw the plain package, and the fact engine still sees one
// types.Package per path.
func (l *Loader) Load(dirs []string) ([]*Package, error) {
	start := time.Now()
	var roots, tests []*node
	for _, dir := range dirs {
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(l.Root, dir)
		}
		dir = filepath.Clean(dir)
		n, _ := l.lookup(nodeKey{id: dir})
		roots = append(roots, n)
		if l.IncludeTests {
			if n.done && !n.withTests && n.pkg != nil {
				return nil, fmt.Errorf("analysis: %s was loaded without its tests", n.path)
			}
			n.withTests = true
			t, _ := l.lookup(nodeKey{id: dir, test: true})
			tests = append(tests, t)
		}
	}
	starts := append(append([]*node(nil), roots...), tests...)
	l.discover(starts)
	todo, err := unchecked(starts)
	if err != nil {
		return nil, err
	}
	l.checkAll(todo)
	for _, t := range tests {
		l.addTests(t)
	}

	l.stats = LoadStats{}
	for _, n := range todo {
		switch {
		case n.pkg != nil:
			l.stats.Module++
		case n.types != nil:
			l.stats.Std++
		}
	}
	var pkgs []*Package
	for _, n := range starts {
		if n.err != nil {
			return nil, n.err
		}
	}
	for _, n := range roots {
		if n.pkg != nil {
			pkgs = append(pkgs, n.pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	l.stats.Wall = time.Since(start)
	return pkgs, nil
}

// Stats reports the cost of the latest Load.
func (l *Loader) Stats() LoadStats { return l.stats }

// Universe returns every module package the loader has parsed and
// type-checked so far: the packages requested through Load plus every
// module dependency pulled in to resolve their imports, all with full
// syntax trees. This is the input the fact engine wants — facts must
// see a helper's body even when its package was not selected for
// reporting. Deterministic path order.
func (l *Loader) Universe() []*Package {
	var out []*Package
	for _, n := range l.nodes {
		if n.pkg != nil {
			out = append(out, n.pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// lookup returns the node for key, creating it (undiscovered) when it
// is new.
func (l *Loader) lookup(key nodeKey) (n *node, fresh bool) {
	if n, ok := l.nodes[key]; ok {
		return n, false
	}
	n = &node{path: key.id, dir: key.id, test: key.test}
	if filepath.IsAbs(key.id) {
		n.path = l.importPath(key.id)
	} else {
		n.std, n.dir = true, ""
	}
	l.nodes[key] = n
	return n, true
}

// keyFor maps an import path to its node key: a directory for a path
// inside the module, the path itself for anything else.
func (l *Loader) keyFor(path string) nodeKey {
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
		return nodeKey{id: filepath.Join(l.Root, filepath.FromSlash(rel))}
	}
	return nodeKey{id: path}
}

// importPath maps an absolute directory inside the module to its
// import path.
func (l *Loader) importPath(dir string) string {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil || rel == "." {
		return l.Module
	}
	return l.Module + "/" + filepath.ToSlash(rel)
}

// discover closes the import graph over roots: every unscanned node
// reachable from them is scanned on its own goroutine (at most
// GOMAXPROCS scanning at once) and its imports resolved to nodes.
func (l *Loader) discover(roots []*node) {
	var (
		mu  sync.Mutex // guards l.nodes and every node's deps
		wg  sync.WaitGroup
		sem = make(chan struct{}, runtime.GOMAXPROCS(0))
	)
	var visit func(n *node)
	spawn := func(n *node) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			visit(n)
		}()
	}
	visit = func(n *node) {
		sem <- struct{}{}
		l.scan(n)
		<-sem
		mu.Lock()
		defer mu.Unlock()
		n.deps = make(map[string]*node, len(n.imports))
		for _, path := range n.imports {
			if path == "unsafe" {
				continue
			}
			d, fresh := l.lookup(l.keyFor(path))
			n.deps[path] = d
			if fresh {
				spawn(d)
			}
		}
	}
	// Roots are registered already; a nil deps map marks the ones no
	// earlier Load has scanned.
	started := make(map[*node]bool)
	mu.Lock()
	for _, n := range roots {
		if n.deps == nil && !started[n] {
			started[n] = true
			spawn(n)
		}
	}
	mu.Unlock()
	wg.Wait()
}

// scan lists the node's files and reads their imports. A std path
// resolves to GOROOT/src/<path>, or for imports the standard library
// vendors, GOROOT/src/vendor/<path> with package path "vendor/<path>".
// Failures are recorded in n.err.
func (l *Loader) scan(n *node) {
	if n.std {
		src := filepath.Join(l.ctxt.GOROOT, "src")
		n.dir = filepath.Join(src, filepath.FromSlash(n.path))
		if !isDir(n.dir) {
			vendored := filepath.Join(src, "vendor", filepath.FromSlash(n.path))
			if !isDir(vendored) {
				n.err = fmt.Errorf("analysis: cannot find package %q in %s", n.path, src)
				return
			}
			n.dir, n.path = vendored, "vendor/"+n.path
		}
	}
	entries, err := os.ReadDir(n.dir)
	if err != nil {
		n.err = err
		return
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") != n.test {
			continue
		}
		// Build constraints select every file, so a _linux/_windows
		// pair or a race / !race pair of _test.go files is never
		// checked together.
		if ok, err := l.ctxt.MatchFile(n.dir, name); err != nil || !ok {
			continue
		}
		names = append(names, name) // ReadDir sorts by name
	}
	fset := token.NewFileSet()
	seen := make(map[string]bool)
	for _, name := range names {
		file, err := parser.ParseFile(fset, filepath.Join(n.dir, name), nil, parser.ImportsOnly)
		if err != nil {
			n.err = fmt.Errorf("analysis: %w", err)
			return
		}
		switch {
		case n.test:
			// External test packages (package x_test) share the
			// directory but are not loaded.
			if strings.HasSuffix(file.Name.Name, "_test") {
				continue
			}
		case n.name == "":
			n.name = file.Name.Name
		case file.Name.Name != n.name:
			continue
		}
		n.names = append(n.names, name)
		for _, spec := range file.Imports {
			path := strings.Trim(spec.Path.Value, "`\"")
			if !seen[path] {
				seen[path] = true
				n.imports = append(n.imports, path)
			}
		}
	}
	if n.test {
		// The test files extend their own package, so it must be
		// checked first.
		n.imports = append(n.imports, l.importPath(n.dir))
	}
}

func isDir(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}

// unchecked returns every node reachable from roots that no Load has
// checked yet, dependencies before their importers, or the first
// import cycle among them, walking imports in source order as the type
// checker would meet them. Checked nodes cannot be on a new cycle.
func unchecked(roots []*node) ([]*node, error) {
	const (
		onPath = 1
		closed = 2
	)
	state := make(map[*node]int)
	var order []*node
	var visit func(n *node) error
	visit = func(n *node) error {
		switch state[n] {
		case onPath:
			return fmt.Errorf("analysis: import cycle through %s", n.path)
		case closed:
			return nil
		}
		state[n] = onPath
		for _, path := range n.imports {
			if d := n.deps[path]; d != nil && !d.done {
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		state[n] = closed
		order = append(order, n)
		return nil
	}
	for _, n := range roots {
		if n.done {
			continue
		}
		if err := visit(n); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// checkAll type-checks the module and std nodes of todo (every
// unchecked dependency of each is among them) in dependency order. A
// ready channel holds nodes whose dependencies are all done; each of
// GOMAXPROCS workers takes one, checks it and, under mu, releases the
// nodes that were waiting on it. The graph is acyclic, so every node
// becomes ready exactly once.
func (l *Loader) checkAll(todo []*node) {
	var nodes []*node
	for _, n := range todo {
		if !n.test {
			nodes = append(nodes, n)
		}
	}
	if len(nodes) == 0 {
		return
	}
	var mu sync.Mutex
	// Sized to every node, so a send never blocks, even under mu.
	ready := make(chan *node, len(nodes))
	for _, n := range nodes {
		for _, d := range n.deps {
			if !d.done {
				n.waiting++
				d.users = append(d.users, n)
			}
		}
	}
	for _, n := range nodes {
		if n.waiting == 0 {
			ready <- n
		}
	}
	remaining := len(nodes)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range ready {
				l.check(n)
				mu.Lock()
				n.done = true
				for _, u := range n.users {
					if u.waiting--; u.waiting == 0 {
						ready <- u
					}
				}
				n.users = nil
				if remaining--; remaining == 0 {
					close(ready)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// check parses one node's files and type-checks them against its
// finished dependencies.
func (l *Loader) check(n *node) {
	if n.err != nil || len(n.names) == 0 {
		return
	}
	mode := parser.ParseComments
	if n.std {
		mode = parser.SkipObjectResolution
	}
	files := make([]*ast.File, 0, len(n.names))
	for _, name := range n.names {
		path := filepath.Join(n.dir, name)
		var src any // nil: the parser reads the file
		if n.std {
			// The export surface needs no bodies and no table
			// contents, so the parser never sees them.
			data, err := os.ReadFile(path)
			if err != nil {
				n.err = fmt.Errorf("analysis: %w", err)
				return
			}
			src = purgeBodies(data)
		}
		file, err := parser.ParseFile(l.fset, path, src, mode)
		if err != nil {
			n.err = fmt.Errorf("analysis: %w", err)
			return
		}
		files = append(files, file)
	}

	if n.std {
		n.types, n.err = l.checkStd(n, files)
		return
	}

	pkg := &Package{
		Path:  n.path,
		Dir:   n.dir,
		Name:  n.name,
		Fset:  l.fset,
		Files: files,
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := &types.Config{
		Importer: depImporter(n.deps),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	pkg.Types = types.NewPackage(pkg.Path, "")
	pkg.Info = info
	checker := types.NewChecker(conf, l.fset, pkg.Types, info)
	pkg.checkFiles(checker, files)
	if n.withTests {
		n.checker = checker
	}
	n.pkg = pkg
}

// checkStd type-checks files, the source of std node n, against its
// checked dependencies as an export surface only: bodies unchecked,
// the compiler's sizes, and soft errors (such as the unused imports
// that skipping bodies provokes) ignored.
func (l *Loader) checkStd(n *node, files []*ast.File) (*types.Package, error) {
	var hard error
	conf := types.Config{
		Importer:         depImporter(n.deps),
		IgnoreFuncBodies: true,
		Sizes:            types.SizesFor("gc", l.ctxt.GOARCH),
		Error: func(err error) {
			var terr types.Error
			if hard == nil && !(errors.As(err, &terr) && terr.Soft) {
				hard = err
			}
		},
	}
	tpkg, err := conf.Check(n.path, l.fset, files, nil)
	if err != nil && hard != nil {
		return tpkg, fmt.Errorf("analysis: type-checking %s failed: %v", n.path, hard)
	}
	return tpkg, nil
}

// checkFiles runs one pass of the package's checker over files.
func (pkg *Package) checkFiles(checker *types.Checker, files []*ast.File) {
	if err := checker.Files(files); err != nil && len(pkg.TypeErrors) == 0 {
		// Files reports the first error even when the Error callback
		// (which sees them all) is set; keep at least one.
		pkg.TypeErrors = append(pkg.TypeErrors, err)
	}
}

// addTests extends a requested package with its _test.go files (node
// t), through the checker that checked it. It runs once the whole
// graph is checked, one package at a time: adding declarations and
// methods to a package must not race with anything reading it.
func (l *Loader) addTests(t *node) {
	if t.done {
		return
	}
	t.done = true
	n := t.deps[t.path]
	checker := n.checker
	n.checker = nil
	if t.err != nil || len(t.names) == 0 || n.pkg == nil {
		return
	}
	var files []*ast.File
	for _, name := range t.names {
		file, err := parser.ParseFile(l.fset, filepath.Join(t.dir, name), nil, parser.ParseComments)
		if err != nil {
			t.err = fmt.Errorf("analysis: %w", err)
			return
		}
		files = append(files, file)
	}
	// The checker resolves imports through n.deps, so the test files'
	// dependencies join it.
	for path, d := range t.deps {
		if d != n {
			n.deps[path] = d
		}
	}
	n.pkg.checkFiles(checker, files)
	n.pkg.Files = append(n.pkg.Files, files...)
	sort.Slice(n.pkg.Files, func(i, j int) bool {
		return l.fset.File(n.pkg.Files[i].Pos()).Name() < l.fset.File(n.pkg.Files[j].Pos()).Name()
	})
}

// depImporter resolves a package's imports to its checked
// dependencies, keyed by import path as written.
type depImporter map[string]*node

// Import implements types.Importer.
func (deps depImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	n := deps[path]
	switch {
	case n == nil:
		return nil, fmt.Errorf("analysis: cannot find package %q", path)
	case n.err != nil:
		return nil, n.err
	case n.std:
		return n.types, nil
	case n.pkg == nil:
		return nil, fmt.Errorf("analysis: no Go files in %s", path)
	case len(n.pkg.TypeErrors) > 0:
		return nil, fmt.Errorf("analysis: dependency %s has type errors: %v", path, n.pkg.TypeErrors[0])
	}
	return n.pkg.Types, nil
}
