package trace_test

import (
	"reflect"
	"sync"
	"testing"

	"pbsim/internal/trace"
	"pbsim/internal/workload"
)

// newGen builds a generator for p, failing the test on error.
func newGen(t *testing.T, p trace.Params) *trace.Generator {
	t.Helper()
	g, err := trace.NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// requireSame reads n instructions from both generators and fails at
// the first difference.
func requireSame(t *testing.T, what string, got, want *trace.Generator, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if a, b := got.Next(), want.Next(); a != b {
			t.Fatalf("%s: instruction %d (position %d) differs: got %+v want %+v", what, i, want.Emitted()-1, a, b)
		}
	}
	if got.Emitted() != want.Emitted() {
		t.Fatalf("%s: Emitted() = %d, want %d", what, got.Emitted(), want.Emitted())
	}
}

// TestReplayMatchesLive: GIVEN every workload's stream, WHEN a
// generator replays a tape recorded at the origin or mid-stream, THEN
// it emits the live stream bit for bit, through the tape and past its
// end, whether it recorded the tape or found it recorded.
func TestReplayMatchesLive(t *testing.T) {
	const n = 3000
	for _, w := range workload.All() {
		for _, start := range []int64{0, 1777} {
			for _, who := range []string{"recorder", "reader"} {
				live, taped := newGen(t, w.Params), newGen(t, w.Params)
				live.Skip(start)
				taped.Skip(start)
				taped.Replay(n)
				if trace.TapeOf(taped) == nil {
					t.Fatalf("%s: Replay attached no tape", w.Name)
				}
				requireSame(t, w.Name+"/"+who, taped, live, n+500)
				if trace.TapeOf(taped) != nil {
					t.Fatalf("%s: still on the tape past its end", w.Name)
				}
			}
		}
	}
}

// TestNextPackedMatchesNext: GIVEN every workload's stream and a
// program of three short blocks that wraps to CodeBase every few dozen
// instructions, by a call or by falling through, WHEN a window that starts untaped,
// crosses a replayed tape and runs past its end is read packed, THEN
// every record unpacks to exactly what Next returns on a twin
// generator, and each accessor agrees with that instruction: through
// wraps at the code's end, calls (whose fall-through is the return
// address) and returns, in all three stretches.
func TestNextPackedMatchesNext(t *testing.T) {
	type stream struct {
		name string
		p    trace.Params
	}
	var streams []stream
	for _, w := range workload.All() {
		streams = append(streams, stream{w.Name, w.Params})
	}
	gzip, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	tiny := gzip.Params
	tiny.NumBlocks, tiny.AvgBlockLen, tiny.CallFraction, tiny.Seed = 3, 4, 0.4, 15
	streams = append(streams, stream{"wrapping program", tiny})

	const untaped, taped, past = 700, 3000, 500
	// Per stretch: untaped, taped, past the tape.
	var calls, returns, wraps, callWraps [3]int
	for _, s := range streams {
		packed, twin := newGen(t, s.p), newGen(t, s.p)
		var p trace.Packed
		var prev trace.Instr
		for i := 0; i < untaped+taped+past; i++ {
			stretch := 0
			switch {
			case i == untaped:
				packed.Replay(taped)
				if trace.TapeLen(packed) != taped {
					t.Fatalf("%s: Replay(%d) attached a tape of %d", s.name, taped, trace.TapeLen(packed))
				}
				stretch = 1
			case i > untaped+taped:
				stretch = 2
			case i > untaped:
				stretch = 1
			}
			packed.NextPacked(&p)
			want := twin.Next()
			if got := p.Unpack(); got != want {
				t.Fatalf("%s: instruction %d unpacks to %+v, Next gives %+v", s.name, i, got, want)
			}
			if p.Class() != want.Class || p.PC() != want.PC || p.Dep1() != want.Dep1 || p.Dep2() != want.Dep2 ||
				p.Taken() != want.Taken || p.CompID() != want.CompID {
				t.Fatalf("%s: instruction %d: accessors disagree with %+v", s.name, i, want)
			}
			if want.Class.IsMem() && p.Addr() != want.Addr {
				t.Fatalf("%s: instruction %d: Addr %#x, want %#x", s.name, i, p.Addr(), want.Addr)
			}
			if want.Taken && p.Target() != want.Target {
				t.Fatalf("%s: instruction %d: Target %#x, want %#x", s.name, i, p.Target(), want.Target)
			}
			switch want.Class {
			case trace.Call:
				calls[stretch]++
				if p.FallThrough() != want.Addr {
					t.Fatalf("%s: call %d: FallThrough %#x, return address %#x", s.name, i, p.FallThrough(), want.Addr)
				}
				if want.Addr == trace.CodeBase {
					callWraps[stretch]++
				}
			case trace.Return:
				returns[stretch]++
			}
			if i > 0 && !prev.Taken && want.PC == trace.CodeBase {
				wraps[stretch]++
			}
			prev = want
		}
		if trace.TapeOf(packed) != nil || packed.Emitted() != twin.Emitted() {
			t.Fatalf("%s: the window did not run past the tape in step with the twin", s.name)
		}
	}
	for k, what := range []string{"untaped", "taped", "past the tape"} {
		if calls[k] == 0 || returns[k] == 0 || wraps[k] == 0 || callWraps[k] == 0 {
			t.Errorf("%s: %d calls, %d returns, %d falls through and %d calls from the code's end, want each", what, calls[k], returns[k], wraps[k], callWraps[k])
		}
	}
}

// TestReplaySnapshotRestoreResetMidTape: GIVEN a generator halfway
// through a tape, WHEN it is snapshotted, restored or reset, THEN the
// snapshot equals the live generator's at that position and every
// later instruction equals the live stream's.
func TestReplaySnapshotRestoreResetMidTape(t *testing.T) {
	for _, w := range workload.All() {
		live, taped := newGen(t, w.Params), newGen(t, w.Params)
		taped.Replay(4000)
		requireSame(t, w.Name+"/before snapshot", taped, live, 1500)
		snap, want := taped.Snapshot(), live.Snapshot()
		if !reflect.DeepEqual(snap, want) {
			t.Fatalf("%s: mid-tape snapshot differs from the live state", w.Name)
		}
		requireSame(t, w.Name+"/after snapshot", taped, live, 3000)

		// Restore into a generator that is itself mid-tape.
		other := newGen(t, w.Params)
		other.Replay(4000)
		other.Skip(2500)
		if err := other.Restore(snap); err != nil {
			t.Fatal(err)
		}
		check := newGen(t, w.Params)
		if err := check.Restore(want); err != nil {
			t.Fatal(err)
		}
		requireSame(t, w.Name+"/restored mid-tape", other, check, 3000)

		// Reset mid-tape starts the stream over.
		taped.Replay(4000)
		taped.Skip(100)
		taped.Reset()
		requireSame(t, w.Name+"/reset mid-tape", taped, newGen(t, w.Params), 5000)
	}
}

// TestReplayConcurrentFirstUseRecordsOnce: GIVEN a tape nobody has
// recorded, WHEN 8 goroutines replay it at once, THEN all of them play
// the same recording and each emits the live stream.
func TestReplayConcurrentFirstUseRecordsOnce(t *testing.T) {
	w, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Params
	p.Seed ^= 0x7a9e // a key no other test records
	const workers, n = 8, 2000
	gens := make([]*trace.Generator, workers)
	for i := range gens {
		gens[i] = newGen(t, p)
	}
	var wg sync.WaitGroup
	for _, g := range gens {
		wg.Add(1)
		go func(g *trace.Generator) {
			defer wg.Done()
			g.Replay(n)
		}(g)
	}
	wg.Wait()
	first := trace.TapeOf(gens[0])
	for i, g := range gens {
		if tp := trace.TapeOf(g); tp == nil || tp != first {
			t.Fatalf("generator %d plays tape %p, generator 0 plays %p", i, tp, first)
		}
	}
	for _, g := range gens {
		requireSame(t, "worker", g, newGen(t, p), n+100)
	}
}

// mcfVariant returns mcf's parameters under a seed no other test
// uses, so that each test sees the memo fresh for its workloads.
func mcfVariant(t *testing.T, salt uint64) trace.Params {
	t.Helper()
	w, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	p := w.Params
	p.Seed ^= salt
	return p
}

// TestTapeMemoBounded: GIVEN more workloads than the memo holds, WHEN
// each replays a tape, THEN the memo never holds more workloads than
// its bound and the most recent workload's tape is shared.
func TestTapeMemoBounded(t *testing.T) {
	bound := trace.MemoWorkloads()
	var last *trace.Generator
	var p trace.Params
	for i := 0; i < bound+3; i++ {
		p = mcfVariant(t, 0x3b00+uint64(i))
		last = newGen(t, p)
		last.Replay(200)
		if got := trace.MemoLen(); got > bound {
			t.Fatalf("memo holds %d workloads after %d, bound %d", got, i+1, bound)
		}
	}
	h := newGen(t, p)
	h.Replay(200)
	if trace.TapeOf(h) != trace.TapeOf(last) {
		t.Fatal("the most recent workload's tape was not shared")
	}
}

// TestTapeMemoKeepsEverySampleGroup: GIVEN one workload whose rows
// each replay more stream segments, in turn, than the memo holds
// workloads (a uniform sample's ten region groups), WHEN a second row
// runs after the first, THEN it plays the first row's recording of
// every segment instead of recording any again.
func TestTapeMemoKeepsEverySampleGroup(t *testing.T) {
	p := mcfVariant(t, 0x5a3c)
	groups := trace.MemoWorkloads() + 6
	row := func() []any {
		g := newGen(t, p)
		var played []any
		for i := 0; i < groups; i++ {
			g.Reset()
			g.Skip(int64(1000 * i))
			g.Replay(300)
			played = append(played, trace.TapeOf(g))
		}
		return played
	}
	first, second := row(), row()
	for i := range first {
		if first[i] == nil || first[i] != second[i] {
			t.Fatalf("group %d: the second row played tape %p, the first %p", i, second[i], first[i])
		}
	}
}

// TestTapeWorkloadCap: GIVEN a request longer than a workload's cap,
// WHEN it is replayed, THEN the tape stops at the cap, the stream stays
// exact across it, and a later request for the full workload plays
// live.
func TestTapeWorkloadCap(t *testing.T) {
	p := mcfVariant(t, 0xc4a9)
	live, taped := newGen(t, p), newGen(t, p)
	taped.Replay(trace.MaxWorkloadRecs + 1000)
	if got := trace.TapeLen(taped); got != trace.MaxWorkloadRecs {
		t.Fatalf("tape holds %d records, want the cap %d", got, trace.MaxWorkloadRecs)
	}
	requireSame(t, "across the cap", taped, live, trace.MaxWorkloadRecs+1000)
	taped.Replay(500)
	if trace.TapeOf(taped) != nil {
		t.Fatal("a request past the workload's cap attached a tape")
	}
	requireSame(t, "past the cap", taped, live, 500)
}
