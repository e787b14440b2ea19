package flow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// buildFunc parses src as a file, finds the first function
// declaration, and builds its CFG.
func buildFunc(t *testing.T, body string) *CFG {
	t.Helper()
	src := "package p\n\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			return Build(fd.Body)
		}
	}
	t.Fatal("no function declaration")
	return nil
}

// reaches reports whether to is reachable from from along Succs.
func reaches(from, to *Block) bool {
	seen := make(map[*Block]bool)
	var walk func(*Block) bool
	walk = func(b *Block) bool {
		if b == to {
			return true
		}
		if seen[b] {
			return false
		}
		seen[b] = true
		for _, s := range b.Succs {
			if walk(s) {
				return true
			}
		}
		return false
	}
	return walk(from)
}

// exitPreds returns the kinds of the exit block's predecessors.
func exitPreds(g *CFG) []string {
	var kinds []string
	for _, p := range g.Exit.Preds {
		kinds = append(kinds, p.Kind)
	}
	return kinds
}

func TestBuildStraightLine(t *testing.T) {
	g := buildFunc(t, "x := 1\n_ = x")
	want := "b0 entry [0] -> b2\nb1 exit [0]\nb2 body [2] -> b1\n"
	if got := g.String(); got != want {
		t.Errorf("dump:\n%s\nwant:\n%s", got, want)
	}
}

func TestBuildNilBody(t *testing.T) {
	g := Build(nil)
	if !reaches(g.Entry, g.Exit) {
		t.Error("exit unreachable from entry in empty graph")
	}
}

func TestBuildIfElse(t *testing.T) {
	g := buildFunc(t, `
x := 1
if x > 0 {
	x = 2
} else {
	x = 3
}
_ = x`)
	// entry -> body(cond) -> then/else -> after -> exit
	var cond, then, els, after *Block
	for _, b := range g.Blocks {
		switch b.Kind {
		case "body":
			cond = b
		case "if.then":
			then = b
		case "if.else":
			els = b
		case "if.after":
			after = b
		}
	}
	if cond == nil || then == nil || els == nil || after == nil {
		t.Fatalf("missing blocks in:\n%s", g.String())
	}
	if len(cond.Succs) != 2 {
		t.Errorf("cond block has %d succs, want 2 (then, else)", len(cond.Succs))
	}
	// cond holds: init assign + the condition expression.
	if len(cond.Nodes) != 2 {
		t.Errorf("cond block has %d nodes, want 2", len(cond.Nodes))
	}
	if _, ok := cond.Nodes[1].(ast.Expr); !ok {
		t.Errorf("cond block's last node is %T, want the condition expression", cond.Nodes[1])
	}
	for _, b := range []*Block{then, els} {
		if len(b.Succs) != 1 || b.Succs[0] != after {
			t.Errorf("%s does not flow to if.after", b.Kind)
		}
	}
}

func TestBuildIfWithoutElse(t *testing.T) {
	g := buildFunc(t, "if true {\n\t_ = 1\n}")
	for _, b := range g.Blocks {
		if b.Kind == "body" {
			if len(b.Succs) != 2 {
				t.Errorf("if-no-else guard has %d succs, want 2 (then + after)", len(b.Succs))
			}
		}
	}
}

func TestBuildForLoop(t *testing.T) {
	g := buildFunc(t, `
for i := 0; i < 10; i++ {
	_ = i
}`)
	var head, body, post, after *Block
	for _, b := range g.Blocks {
		switch b.Kind {
		case "for.head":
			head = b
		case "for.body":
			body = b
		case "for.post":
			post = b
		case "for.after":
			after = b
		}
	}
	if head == nil || body == nil || post == nil || after == nil {
		t.Fatalf("missing loop blocks in:\n%s", g.String())
	}
	if !reaches(body, head) {
		t.Error("no back edge from body to head")
	}
	if len(body.Succs) != 1 || body.Succs[0] != post {
		t.Error("body must continue through the post block")
	}
	if !reaches(head, after) {
		t.Error("loop exit edge missing")
	}
}

func TestBuildInfiniteFor(t *testing.T) {
	g := buildFunc(t, `
for {
	_ = 1
}
_ = 2`)
	// No condition: the only way past the loop is a break, so the
	// trailing statement and exit are unreachable from entry.
	if reaches(g.Entry, g.Exit) {
		t.Errorf("exit reachable across an infinite loop:\n%s", g.String())
	}
}

func TestBuildForBreakContinue(t *testing.T) {
	g := buildFunc(t, `
for i := 0; i < 10; i++ {
	if i == 2 {
		continue
	}
	if i == 5 {
		break
	}
	_ = i
}`)
	var head, post, after *Block
	for _, b := range g.Blocks {
		switch b.Kind {
		case "for.head":
			head = b
		case "for.post":
			post = b
		case "for.after":
			after = b
		}
	}
	// continue targets the post block, break targets after.
	foundCont, foundBrk := false, false
	for _, p := range post.Preds {
		if p.Kind == "if.then" {
			foundCont = true
		}
	}
	for _, p := range after.Preds {
		if p.Kind == "if.then" {
			foundBrk = true
		}
	}
	if !foundCont {
		t.Errorf("continue does not reach for.post:\n%s", g.String())
	}
	if !foundBrk {
		t.Errorf("break does not reach for.after:\n%s", g.String())
	}
	if head == nil {
		t.Fatal("no head")
	}
}

func TestBuildRange(t *testing.T) {
	g := buildFunc(t, `
xs := []int{1, 2}
for i, v := range xs {
	_, _ = i, v
}`)
	var head, body, after *Block
	for _, b := range g.Blocks {
		switch b.Kind {
		case "range.head":
			head = b
		case "range.body":
			body = b
		case "range.after":
			after = b
		}
	}
	if head == nil || body == nil || after == nil {
		t.Fatalf("missing range blocks:\n%s", g.String())
	}
	// Head carries the operand expression and the RangeStmt marker.
	if len(head.Nodes) != 2 {
		t.Errorf("range head has %d nodes, want 2 (operand + marker)", len(head.Nodes))
	}
	if _, ok := head.Nodes[1].(*ast.RangeStmt); !ok {
		t.Errorf("range head marker is %T, want *ast.RangeStmt", head.Nodes[1])
	}
	if !reaches(body, head) || !reaches(head, after) {
		t.Error("range loop shape broken")
	}
}

func TestBuildSwitchFallthrough(t *testing.T) {
	g := buildFunc(t, `
x := 1
switch x {
case 1:
	_ = "one"
	fallthrough
case 2:
	_ = "two"
default:
	_ = "many"
}`)
	var cases []*Block
	var after *Block
	for _, b := range g.Blocks {
		switch b.Kind {
		case "case":
			cases = append(cases, b)
		case "switch.after":
			after = b
		}
	}
	if len(cases) != 3 {
		t.Fatalf("got %d case blocks, want 3:\n%s", len(cases), g.String())
	}
	// fallthrough: case 1's body flows into case 2's block.
	if !reaches(cases[0], cases[1]) {
		t.Errorf("fallthrough edge missing:\n%s", g.String())
	}
	// With a default present the dispatcher must NOT bypass the cases.
	for _, p := range after.Preds {
		if p.Kind == "body" {
			t.Error("switch with default has a direct dispatcher->after edge")
		}
	}
}

func TestBuildSwitchNoDefault(t *testing.T) {
	g := buildFunc(t, `
switch x := 1; x {
case 1:
	_ = x
}`)
	var after *Block
	for _, b := range g.Blocks {
		if b.Kind == "switch.after" {
			after = b
		}
	}
	// No default: the dispatcher may skip every case.
	direct := false
	for _, p := range after.Preds {
		if p.Kind == "body" {
			direct = true
		}
	}
	if !direct {
		t.Errorf("switch without default lacks dispatcher->after edge:\n%s", g.String())
	}
}

func TestBuildTypeSwitch(t *testing.T) {
	g := buildFunc(t, `
var v any = 1
switch t := v.(type) {
case int:
	_ = t
case string:
	_ = t
}`)
	n := 0
	for _, b := range g.Blocks {
		if b.Kind == "case" {
			n++
		}
	}
	if n != 2 {
		t.Errorf("got %d case blocks, want 2:\n%s", n, g.String())
	}
	if !reaches(g.Entry, g.Exit) {
		t.Error("exit unreachable")
	}
}

func TestBuildSelect(t *testing.T) {
	g := buildFunc(t, `
ch := make(chan int)
done := make(chan struct{})
select {
case v := <-ch:
	_ = v
case <-done:
	return
}`)
	n := 0
	for _, b := range g.Blocks {
		if b.Kind == "select.case" {
			n++
		}
	}
	if n != 2 {
		t.Errorf("got %d select branches, want 2:\n%s", n, g.String())
	}
	// The return branch reaches exit; the other reaches select.after.
	if !reaches(g.Entry, g.Exit) {
		t.Error("exit unreachable")
	}
}

func TestBuildEmptySelectBlocksForever(t *testing.T) {
	g := buildFunc(t, "select {}\n_ = 1")
	if reaches(g.Entry, g.Exit) {
		t.Errorf("exit reachable past select{}:\n%s", g.String())
	}
}

func TestBuildGotoBackward(t *testing.T) {
	g := buildFunc(t, `
i := 0
loop:
	i++
	if i < 10 {
		goto loop
	}`)
	var target *Block
	for _, b := range g.Blocks {
		if b.Kind == "label.loop" {
			target = b
		}
	}
	if target == nil {
		t.Fatalf("no label block:\n%s", g.String())
	}
	// The goto inside if.then must edge back to the label block.
	back := false
	for _, p := range target.Preds {
		if p.Kind == "if.then" {
			back = true
		}
	}
	if !back {
		t.Errorf("goto back edge missing:\n%s", g.String())
	}
}

func TestBuildGotoForward(t *testing.T) {
	g := buildFunc(t, `
if true {
	goto out
}
_ = 1
out:
	_ = 2`)
	var target *Block
	for _, b := range g.Blocks {
		if b.Kind == "label.out" {
			target = b
		}
	}
	if target == nil {
		t.Fatalf("no label block:\n%s", g.String())
	}
	fromThen := false
	for _, p := range target.Preds {
		if p.Kind == "if.then" {
			fromThen = true
		}
	}
	if !fromThen {
		t.Errorf("forward goto not patched to its label:\n%s", g.String())
	}
}

func TestBuildLabeledBreakContinue(t *testing.T) {
	g := buildFunc(t, `
outer:
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if j == 1 {
				continue outer
			}
			if j == 2 {
				break outer
			}
		}
	}`)
	// continue outer must land on the OUTER post block; break outer on
	// the outer after block. Identify them: the outer loop is built
	// from the label block.
	var outerPost, outerAfter *Block
	posts, afters := []*Block{}, []*Block{}
	for _, b := range g.Blocks {
		switch b.Kind {
		case "for.post":
			posts = append(posts, b)
		case "for.after":
			afters = append(afters, b)
		}
	}
	if len(posts) != 2 || len(afters) != 2 {
		t.Fatalf("got %d posts, %d afters, want 2 each:\n%s", len(posts), len(afters), g.String())
	}
	// The outer loop was entered first, so its post/after have lower
	// indices... post blocks are created during body construction:
	// outer post is created before the inner loop's. Outer after too.
	outerPost, outerAfter = posts[0], afters[0]
	fromInnerThen := func(b *Block) bool {
		for _, p := range b.Preds {
			if p.Kind == "if.then" {
				return true
			}
		}
		return false
	}
	if !fromInnerThen(outerPost) {
		t.Errorf("continue outer does not reach the outer post block:\n%s", g.String())
	}
	if !fromInnerThen(outerAfter) {
		t.Errorf("break outer does not reach the outer after block:\n%s", g.String())
	}
}

func TestBuildLabeledPlainStatementBreak(t *testing.T) {
	g := buildFunc(t, `
blk:
	{
		if true {
			break blk
		}
		_ = 1
	}
_ = 2`)
	var after *Block
	for _, b := range g.Blocks {
		if b.Kind == "label.after" {
			after = b
		}
	}
	if after == nil {
		t.Fatalf("no label.after block:\n%s", g.String())
	}
	ok := false
	for _, p := range after.Preds {
		if p.Kind == "if.then" {
			ok = true
		}
	}
	if !ok {
		t.Errorf("break LABEL on a plain labeled block does not exit it:\n%s", g.String())
	}
}

func TestBuildReturnAndPanic(t *testing.T) {
	g := buildFunc(t, `
if true {
	return
}
panic("boom")`)
	var retBlock, panicBlock *Block
	for _, b := range g.Blocks {
		if b.Return != nil {
			retBlock = b
		}
		if b.Panics {
			panicBlock = b
		}
	}
	if retBlock == nil {
		t.Fatal("no block carries the return statement")
	}
	if panicBlock == nil {
		t.Fatal("no block marked as panicking")
	}
	for _, b := range []*Block{retBlock, panicBlock} {
		found := false
		for _, s := range b.Succs {
			if s == g.Exit {
				found = true
			}
		}
		if !found {
			t.Errorf("%s block lacks an exit edge", b.Kind)
		}
	}
	// The fall-off-the-end path after the panic is unreachable: the
	// panic block itself must be exit's only non-return predecessor.
	for _, k := range exitPreds(g) {
		_ = k
	}
}

func TestBuildDeferAndGoAreStraightLine(t *testing.T) {
	g := buildFunc(t, `
defer func() { _ = 1 }()
go func() { _ = 2 }()
_ = 3`)
	// All three land in one body block.
	var body *Block
	for _, b := range g.Blocks {
		if b.Kind == "body" {
			body = b
		}
	}
	if body == nil || len(body.Nodes) != 3 {
		t.Fatalf("defer/go/assign should share one block:\n%s", g.String())
	}
	if len(body.Succs) != 1 || body.Succs[0] != g.Exit {
		t.Error("body should flow straight to exit")
	}
}

func TestBuildUnreachableAfterReturn(t *testing.T) {
	g := buildFunc(t, "return\n_ = 1")
	// The statement after return must sit in a block unreachable from
	// entry.
	for _, b := range g.Blocks {
		if b.Kind == "unreachable" && len(b.Nodes) > 0 {
			if reaches(g.Entry, b) {
				t.Errorf("post-return code reachable:\n%s", g.String())
			}
			return
		}
	}
	t.Fatalf("no unreachable block holds the dead statement:\n%s", g.String())
}

func TestBuildSelectSendAndDefault(t *testing.T) {
	// A send arm is a statement, not a binding: the CommClause's
	// channel operation must land inside its own select.case block, on
	// the branch that performs it.
	g := buildFunc(t, `
ch := make(chan int)
v := 1
select {
case ch <- v:
	v++
default:
	v--
}
_ = v`)
	var cases []*Block
	for _, b := range g.Blocks {
		if b.Kind == "select.case" {
			cases = append(cases, b)
		}
	}
	if len(cases) != 2 {
		t.Fatalf("got %d select branches, want 2 (send + default):\n%s", len(cases), g.String())
	}
	// The send arm's block holds the comm statement plus the branch
	// body, and every arm rejoins at select.after on the way to exit.
	for _, c := range cases {
		if len(c.Nodes) == 0 {
			t.Errorf("select branch block is empty:\n%s", g.String())
		}
		if !reaches(c, g.Exit) {
			t.Errorf("select branch cannot reach exit:\n%s", g.String())
		}
	}
	if !reaches(g.Entry, g.Exit) {
		t.Error("exit unreachable")
	}
}

func TestBuildGoInLoop(t *testing.T) {
	// The spawn-in-loop shape: the go statement is an ordinary node
	// inside the loop body, and the back edge makes it re-executable.
	g := buildFunc(t, `
for i := 0; i < 4; i++ {
	go func() { _ = i }()
}`)
	var head, body *Block
	for _, b := range g.Blocks {
		switch b.Kind {
		case "for.head":
			head = b
		case "for.body":
			body = b
		}
	}
	if head == nil || body == nil {
		t.Fatalf("missing loop blocks:\n%s", g.String())
	}
	found := false
	for _, n := range body.Nodes {
		if _, ok := n.(*ast.GoStmt); ok {
			found = true
		}
	}
	if !found {
		t.Fatalf("go statement not in the loop body block:\n%s", g.String())
	}
	if !reaches(body, head) {
		t.Error("no back edge from loop body; the spawn would not repeat")
	}
	if !reaches(g.Entry, g.Exit) {
		t.Error("exit unreachable")
	}
}

func TestBuildFuncLitBodyIsOwnCFG(t *testing.T) {
	// Rules analyzing spawned bodies build a SEPARATE CFG from the
	// FuncLit's body. A go'd literal containing channel operations and
	// a conditional must produce a well-formed graph of its own, with
	// the enclosing function's graph unchanged (the go statement stays
	// a straight-line node there).
	src := `package p

func f(ch chan int, done chan struct{}) {
	go func() {
		for {
			select {
			case ch <- 1:
			case <-done:
				return
			}
		}
	}()
}`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "lit.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var lit *ast.FuncLit
	ast.Inspect(file, func(n ast.Node) bool {
		if l, ok := n.(*ast.FuncLit); ok {
			lit = l
			return false
		}
		return true
	})
	if lit == nil {
		t.Fatal("no function literal in source")
	}
	outer := Build(file.Decls[0].(*ast.FuncDecl).Body)
	inner := Build(lit.Body)

	// Outer: the go statement is one straight-line node to exit.
	var outerBody *Block
	for _, b := range outer.Blocks {
		if b.Kind == "body" {
			outerBody = b
		}
	}
	if outerBody == nil || len(outerBody.Nodes) != 1 {
		t.Fatalf("outer body should hold exactly the go statement:\n%s", outer.String())
	}
	if _, ok := outerBody.Nodes[0].(*ast.GoStmt); !ok {
		t.Fatalf("outer body node is %T, want *ast.GoStmt", outerBody.Nodes[0])
	}

	// Inner: the literal's infinite for + select produce their own
	// blocks; the return arm makes the inner exit reachable.
	var sawCase bool
	for _, b := range inner.Blocks {
		if b.Kind == "select.case" {
			sawCase = true
		}
	}
	if !sawCase {
		t.Errorf("spawned body CFG missing select branches:\n%s", inner.String())
	}
	if !reaches(inner.Entry, inner.Exit) {
		t.Errorf("return inside the spawned body should reach its own exit:\n%s", inner.String())
	}
}

func TestBuildRangeOverChannel(t *testing.T) {
	// range over a channel is the receive-until-closed idiom; it must
	// take the same head/body/after shape as a slice range so the
	// dataflow rules treat the implicit receives as loop-carried.
	g := buildFunc(t, `
ch := make(chan int)
sum := 0
for v := range ch {
	sum += v
}
_ = sum`)
	var head, body, after *Block
	for _, b := range g.Blocks {
		switch b.Kind {
		case "range.head":
			head = b
		case "range.body":
			body = b
		case "range.after":
			after = b
		}
	}
	if head == nil || body == nil || after == nil {
		t.Fatalf("missing range blocks:\n%s", g.String())
	}
	if !reaches(body, head) || !reaches(head, after) || !reaches(g.Entry, g.Exit) {
		t.Error("channel range loop shape broken")
	}
}

func TestStringStable(t *testing.T) {
	body := `
for i := 0; i < 3; i++ {
	if i == 1 {
		break
	}
}`
	a := buildFunc(t, body).String()
	b := buildFunc(t, body).String()
	if a != b {
		t.Errorf("dump not deterministic:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(a, "for.head") {
		t.Errorf("dump missing block kinds:\n%s", a)
	}
}
