// Package analysis is a from-scratch, stdlib-only static-analysis
// framework for enforcing this repository's reproducibility
// invariants. It is deliberately built on nothing but go/parser,
// go/ast, go/types, and go/token — no golang.org/x/tools — so the
// checks that gate the PB methodology's bit-reproducibility can run
// anywhere the Go toolchain runs, with zero external dependencies.
//
// The framework mirrors the shape (not the code) of the x/tools
// analysis API: an Analyzer bundles a named rule with a Run function;
// a Pass gives that rule one type-checked package at a time; findings
// are Diagnostics carrying exact file:line:col positions. On top of
// that it adds a project policy the generic framework lacks:
// suppressions are only honored when they carry a human-written
// reason (see ignore.go), so every waived finding documents *why* the
// invariant does not apply.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one rule: a short name (used in diagnostics
// and in //pbcheck:ignore comments), a one-line statement of the
// invariant it protects, and the function that checks one package.
type Analyzer struct {
	// Name is the rule identifier, e.g. "determinism". It must be a
	// single lower-case word; it is what suppression comments refer
	// to.
	Name string

	// Doc is a one-line description of the invariant the rule
	// enforces, shown by `pbcheck -list`.
	Doc string

	// Run inspects the package held by the Pass and reports findings
	// through Pass.Reportf. It must not retain the Pass.
	Run func(*Pass)
}

// A Pass is one analyzer's view of one loaded, type-checked package.
// It provides the syntax trees, the type information, the
// interprocedural fact index (phase 1's output, see facts.go), and
// the sink for diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	// Facts is the module-wide interprocedural index: per-function
	// nondeterminism/panic/allocation facts propagated to fixpoint
	// over the call graph of every loaded package. Never nil.
	Facts *FactIndex

	sink *[]Diagnostic
}

// Fset returns the file set all of the package's positions resolve
// against.
func (p *Pass) Fset() *token.FileSet { return p.Pkg.Fset }

// Files returns the package's parsed source files.
func (p *Pass) Files() []*ast.File { return p.Pkg.Files }

// TypesInfo returns the package's resolved type information.
func (p *Pass) TypesInfo() *types.Info { return p.Pkg.Info }

// Path returns the package's import path (module-qualified for
// packages inside the module under analysis).
func (p *Pass) Path() string { return p.Pkg.Path }

// Reportf records a diagnostic at pos under the pass's rule name.
// Package and enclosing function are resolved here so every finding
// carries a position-independent identity.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.sink = append(*p.sink, Diagnostic{
		Rule:     p.Analyzer.Name,
		Position: p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Package:  p.Pkg.Path,
		Func:     p.Pkg.EnclosingFunc(pos),
	})
}

// A Diagnostic is one finding: a rule name, an exact source position,
// and a message. Suppressed findings are retained (they appear in the
// JSON report and under -suppressed) but do not affect the exit code.
// A reasoned waiver is the only way to accept a finding.
type Diagnostic struct {
	Rule     string
	Position token.Position
	Message  string

	// Package and Func identify where the finding lives independently
	// of line numbers: the import path and the enclosing function
	// declaration ("Type.Method" for methods, "" at file scope).
	// Together with Rule and Message they identify a finding across
	// line moves.
	Package string
	Func    string

	// Suppressed marks a finding waived by a //pbcheck:ignore
	// comment; Reason carries the comment's mandatory justification.
	Suppressed bool
	Reason     string
}

// sortKey orders diagnostics by file, then line, then column, then
// rule, so output is stable across runs and map-free.
func (d Diagnostic) sortKey() string {
	return fmt.Sprintf("%s\x00%08d\x00%08d\x00%s\x00%s",
		d.Position.Filename, d.Position.Line, d.Position.Column, d.Rule, d.Message)
}
