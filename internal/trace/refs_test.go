package trace_test

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"pbsim/internal/trace"
	"pbsim/internal/workload"
)

// view is a reference view's columns, decoded.
type view struct {
	runs [][3]uint64 // PC, length, position
	mem  [][2]uint64 // address, position
	ctrl []trace.Instr
}

// decode reads a view through its accessors.
func decode(v *trace.Refs) view {
	var d view
	pos := uint64(0)
	for i := 0; i < v.Runs(); i++ {
		pc, n := v.Run(i)
		d.runs = append(d.runs, [3]uint64{pc, uint64(n), pos})
		pos += uint64(n)
	}
	if pos != uint64(v.Len()) {
		d.runs = append(d.runs, [3]uint64{0, 0, pos}) // the runs do not cover the window
	}
	for i := 0; i < v.Mems(); i++ {
		addr, pos := v.Mem(i)
		d.mem = append(d.mem, [2]uint64{addr, uint64(pos)})
	}
	for i := 0; i < v.Ctrls(); i++ {
		d.ctrl = append(d.ctrl, v.Ctrl(i))
	}
	return d
}

// walkView is the view of g's next n instructions, built by walking
// them one by one: the oracle for Refs.
func walkView(g *trace.Generator, n int64) view {
	var d view
	var prev trace.Instr
	for i := int64(0); i < n; i++ {
		in := g.Next()
		if i > 0 && in.PC == prev.PC+4 {
			d.runs[len(d.runs)-1][1]++
		} else {
			d.runs = append(d.runs, [3]uint64{in.PC, 1, uint64(i)})
		}
		switch {
		case in.Class.IsMem():
			d.mem = append(d.mem, [2]uint64{in.Addr, uint64(i)})
		case in.Class.IsControl():
			c := trace.Instr{PC: in.PC, Class: in.Class, Taken: in.Taken}
			if in.Taken {
				c.Target = in.Target
			}
			if in.Class == trace.Call {
				c.Addr = in.Addr
			}
			d.ctrl = append(d.ctrl, c)
		}
		prev = in
	}
	return d
}

// requireRefs consumes n instructions of got through Refs and the
// same of want through Next, failing at the first view that differs
// from the walk, then checks both continue identically.
func requireRefs(t *testing.T, what string, got, want *trace.Generator, n int64) {
	t.Helper()
	var buf trace.Refs
	for left := n; left > 0; {
		v := got.Refs(left, &buf)
		if v.Len() <= 0 || v.Len() > left {
			t.Fatalf("%s: Refs(%d) covered %d instructions", what, left, v.Len())
		}
		if g, w := decode(v), walkView(want, v.Len()); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: view at position %d differs from the walk:\ngot  %+v\nwant %+v", what, n-left, g, w)
		}
		left -= v.Len()
	}
	requireSame(t, what+" after the window", got, want, 300)
}

// TestRefsMatchWalk: GIVEN every workload's stream, WHEN Refs views a
// window taped or untaped, from the origin or mid-stream, ending at or
// past a tape's end, longer than a live chunk or one instruction long,
// THEN each view lists the runs, loads and stores and control
// instructions the window's instructions walked one by one give, and
// the generator ends where the walk does.
func TestRefsMatchWalk(t *testing.T) {
	gzip, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	// A program of a few short blocks wraps to CodeBase every few
	// dozen instructions, and this one often by a call, whose return
	// address is then CodeBase.
	tiny := gzip.Params
	tiny.NumBlocks, tiny.AvgBlockLen, tiny.CallFraction, tiny.Seed = 3, 4, 0.4, 3
	if wraps := walkView(newGen(t, tiny), 2000); !slices.ContainsFunc(wraps.ctrl, func(in trace.Instr) bool {
		return in.Class == trace.Call && in.Addr == trace.CodeBase
	}) {
		t.Fatal("the wrapping program makes no call from the code's last instruction")
	}
	type window struct {
		name          string
		skip, tape, n int64
		params        trace.Params
	}
	var windows []window
	for _, w := range workload.All() {
		for _, win := range []window{
			{name: "untaped origin", n: 3000},
			{name: "untaped mid-stream", skip: 1777, n: 3000},
			{name: "taped", skip: 1777, tape: 3500, n: 3000},
			{name: "ends at the tape's end", skip: 40, tape: 3000, n: 3000},
			{name: "ends past the tape's end", skip: 40, tape: 3000, n: 3400},
			{name: "live chunks", skip: 9, n: 2*trace.RefsChunk + 3},
			{name: "one instruction", skip: 9, tape: 10, n: 1},
		} {
			win.name = w.Name + " " + win.name
			win.params = w.Params
			windows = append(windows, win)
		}
	}
	windows = append(windows,
		window{name: "code-end wrap taped", tape: 2000, n: 2000, params: tiny},
		window{name: "code-end wrap untaped", n: 2000, params: tiny},
	)
	for _, win := range windows {
		// The second round finds every taped window's view built.
		for round := 0; round < 2; round++ {
			got, want := newGen(t, win.params), newGen(t, win.params)
			got.Skip(win.skip)
			want.Skip(win.skip)
			if win.tape > 0 {
				got.Replay(win.tape)
			}
			requireRefs(t, fmt.Sprintf("%s (round %d)", win.name, round), got, want, win.n)
		}
	}
}

// TestRefsSharedAndSkipped: GIVEN two generators at the same taped
// position, WHEN each asks for the view of a window the tape covers,
// THEN both get the same shared view, not their buffers, and both
// continue the stream exactly where the window ends.
func TestRefsSharedAndSkipped(t *testing.T) {
	p := mcfVariant(t, 0x7e51)
	var views []*trace.Refs
	for i := 0; i < 2; i++ {
		g, live := newGen(t, p), newGen(t, p)
		g.Skip(500)
		live.Skip(500)
		g.Replay(4000)
		var buf trace.Refs
		v := g.Refs(3000, &buf)
		if v == &buf || v.Len() != 3000 {
			t.Fatalf("generator %d: a taped window's view was built into the caller's buffer", i)
		}
		views = append(views, v)
		live.Skip(3000)
		requireSame(t, "after the shared window", g, live, 1500)
	}
	if views[0] != views[1] {
		t.Fatal("the second generator did not share the first one's view")
	}
}

// TestRefsConcurrentFirstUseBuildsOnce: GIVEN eight generators at one
// taped position, WHEN they ask for the same window at once, THEN one
// view is built and all of them share it and continue exactly.
func TestRefsConcurrentFirstUseBuildsOnce(t *testing.T) {
	p := mcfVariant(t, 0x91c3)
	live := newGen(t, p)
	live.Skip(5000)
	next := live.Next()
	const workers = 8
	views := make([]*trace.Refs, workers)
	nexts := make([]trace.Instr, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		g := newGen(t, p)
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.Replay(6000)
			var buf trace.Refs
			views[i] = g.Refs(5000, &buf)
			nexts[i] = g.Next()
		}()
	}
	wg.Wait()
	for i := range views {
		if views[i] != views[0] {
			t.Fatalf("generator %d got view %p, generator 0 %p", i, views[i], views[0])
		}
		if nexts[i] != next {
			t.Fatalf("generator %d continued with %+v, want %+v", i, nexts[i], next)
		}
	}
}

// TestRefsMemoBounded: GIVEN a workload whose cap a tape nearly
// exhausts, or a window shorter than the memo keeps, WHEN Refs views
// a taped window, THEN it builds the view live into the caller's
// buffer; and a workload evicted from the memo loses its views with
// its tapes.
func TestRefsMemoBounded(t *testing.T) {
	p := mcfVariant(t, 0x2d77)
	g := newGen(t, p)
	g.Replay(trace.MaxWorkloadRecs - 100)
	var buf trace.Refs
	if v := g.Refs(300, &buf); v != &buf {
		t.Fatal("a view past the workload's cap was memoized")
	}
	if v := g.Refs(100, &buf); v != &buf {
		t.Fatal("a window shorter than the memo keeps was memoized")
	}

	q := mcfVariant(t, 0x2d78)
	first := func() *trace.Refs {
		h := newGen(t, q)
		h.Replay(1000)
		var buf trace.Refs
		return h.Refs(1000, &buf)
	}
	v := first()
	if first() != v {
		t.Fatal("the view was not shared")
	}
	for i := 0; i < trace.MemoWorkloads(); i++ {
		newGen(t, mcfVariant(t, 0x2e00+uint64(i))).Replay(200)
	}
	if first() == v {
		t.Fatal("an evicted workload's view survived")
	}
}
