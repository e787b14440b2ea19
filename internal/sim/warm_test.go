package sim

import (
	"fmt"
	"reflect"
	"testing"

	"pbsim/internal/pb"
	"pbsim/internal/sim/cache"
	"pbsim/internal/trace"
	"pbsim/internal/workload"
)

// warmReference is functional warming one instruction at a time: the
// loop WarmFunctional's per-structure passes replaced, kept as the
// oracle they are checked against.
func warmReference(c *CPU, n int64) {
	blockBytes := uint64(c.cfg.L1IBlock)
	for i := int64(0); i < n; i++ {
		p := c.instr(c.seq)
		if !c.pending {
			c.gen.NextPacked(p)
		}
		c.pending = false
		in := p.Unpack()
		if block := in.PC / blockBytes; block != c.lastFetchBlock {
			c.hier.InstFetch(in.PC, c.cycle)
			c.lastFetchBlock = block
		}
		if in.Class.IsControl() && c.pred != nil {
			switch in.Class {
			case trace.Branch:
				c.pred.Update(in.PC, in.Taken)
				if in.Taken {
					c.btb.Insert(in.PC, in.Target)
				}
			case trace.Call:
				c.ras.Push(in.Addr)
				c.btb.Insert(in.PC, in.Target)
			case trace.Return:
				c.ras.Pop()
			}
		}
		if in.Class.IsMem() {
			c.hier.DataAccess(in.Addr, c.cycle)
		}
	}
}

// diffWarm names the first warmed state in which two CPUs differ, or
// returns "". It reads each generator's next instruction.
func diffWarm(a, b *CPU) string {
	if d := cache.DiffHierarchy(a.hier, b.hier); d != "" {
		return "hierarchy: " + d
	}
	if !reflect.DeepEqual(a.pred, b.pred) {
		return "direction predictor"
	}
	if !reflect.DeepEqual(a.btb, b.btb) {
		return "BTB"
	}
	if !reflect.DeepEqual(a.ras, b.ras) {
		return "RAS"
	}
	if a.lastFetchBlock != b.lastFetchBlock {
		return fmt.Sprintf("lastFetchBlock %#x != %#x", a.lastFetchBlock, b.lastFetchBlock)
	}
	if a.pending != b.pending {
		return fmt.Sprintf("pending %v != %v", a.pending, b.pending)
	}
	if x, y := a.gen.Emitted(), b.gen.Emitted(); x != y {
		return fmt.Sprintf("Emitted %d != %d", x, y)
	}
	if x, y := a.gen.Next(), b.gen.Next(); x != y {
		return fmt.Sprintf("next instruction %+v != %+v", x, y)
	}
	return ""
}

// warmCase is one window to warm: the stream from position skip,
// replaying a tape of tape instructions when tape > 0, on a prewarmed
// CPU that first commits prefix instructions when prefix > 0.
type warmCase struct {
	name   string
	params trace.Params
	cfg    Config
	skip   int64
	tape   int64
	prefix int64
	n      int64
}

// warmCPU builds the case's CPU up to the window.
func (wc warmCase) warmCPU(t *testing.T) *CPU {
	t.Helper()
	g, err := trace.NewGenerator(wc.params)
	if err != nil {
		t.Fatal(err)
	}
	g.Skip(wc.skip)
	if wc.tape > 0 {
		g.Replay(wc.tape)
	}
	cpu, err := New(wc.cfg, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cpu.Release)
	cpu.PrewarmMemory()
	if wc.prefix > 0 {
		if _, err := cpu.RunMore(wc.prefix); err != nil {
			t.Fatal(err)
		}
	}
	return cpu
}

// check warms the window both ways and compares the results.
func (wc warmCase) check(t *testing.T) {
	t.Helper()
	ref, got := wc.warmCPU(t), wc.warmCPU(t)
	warmReference(ref, wc.n)
	got.WarmFunctional(wc.n)
	if d := diffWarm(ref, got); d != "" {
		t.Errorf("%s: %s", wc.name, d)
	}
}

// TestWarmFunctionalMatchesReference: GIVEN a window of a stream on a
// prewarmed CPU, WHEN WarmFunctional warms it structure by structure,
// THEN every cache, TLB, DRAM counter, predictor, BTB and RAS,
// lastFetchBlock and the stream position end exactly as the
// per-instruction walk leaves them. The windows cover every workload
// under a spread of PB rows, taped from the tape's start (built by the
// first row, shared by the rest) and untaped, ending at and past a
// tape's end, spanning the code's end, longer than a live chunk, one
// instruction long, and a window after RunMore with a fetched
// instruction pending.
func TestWarmFunctionalMatchesReference(t *testing.T) {
	design, err := pb.New(len(Factors()), true)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	for _, w := range workload.All() {
		for _, row := range []int{0, 19, 43, 62, 87} {
			cfg := ConfigForLevels(design.Row(row))
			name := fmt.Sprintf("%s row %d", w.Name, row)
			warmCase{name: name + " taped", params: w.Params, cfg: cfg, skip: 311, tape: n + 700, n: n}.check(t)
			warmCase{name: name + " untaped", params: w.Params, cfg: cfg, skip: 311, n: n}.check(t)
		}
	}

	gzip, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	// A program of a few short blocks wraps to CodeBase every few
	// dozen instructions, and this one often by a call, whose return
	// address is then CodeBase.
	tiny := gzip.Params
	tiny.NumBlocks, tiny.AvgBlockLen, tiny.CallFraction, tiny.Seed = 3, 4, 0.4, 3
	if !callsAcrossCodeEnd(t, tiny, 3000) {
		t.Fatal("the wrapping program makes no call from the code's last instruction")
	}
	def := Default()
	perfect := Default()
	perfect.Predictor = PredPerfect
	tinyBlocks := Default()
	tinyBlocks.L1IBlock = 2 // every instruction enters a block of its own
	fa := Default()
	fa.ITLBAssoc, fa.DTLBAssoc, fa.BTBEntries, fa.BTBAssoc = FullyAssociative, FullyAssociative, 512, FullyAssociative
	for _, wc := range []warmCase{
		{name: "ends at the tape's end", params: gzip.Params, cfg: def, tape: 4000, n: 4000},
		{name: "ends past the tape's end", params: gzip.Params, cfg: def, tape: 4000, n: 4600},
		{name: "fully-associative TLBs and BTB", params: gzip.Params, cfg: fa, tape: 9000, skip: 5, n: 3000},
		{name: "2-byte L1I blocks", params: gzip.Params, cfg: tinyBlocks, tape: 3000, n: 3000},
		{name: "code-end wrap taped", params: tiny, cfg: def, tape: 3000, n: 3000},
		{name: "code-end wrap untaped", params: tiny, cfg: fa, n: 3000},
		{name: "several live chunks", params: gzip.Params, cfg: fa, n: 3*trace.RefsChunk + 17},
		{name: "one instruction", params: gzip.Params, cfg: def, n: 1},
		{name: "one taped instruction", params: gzip.Params, cfg: def, tape: 100, n: 1},
		{name: "perfect prediction", params: gzip.Params, cfg: perfect, tape: 2000, n: 2000},
	} {
		wc.check(t)
	}

	// After RunMore, a fetch stalled on an I-cache miss leaves its
	// instruction pending; warming must take it first.
	pending := 0
	for prefix := int64(200); prefix < 3000 && pending < 3; prefix += 37 {
		wc := warmCase{name: fmt.Sprintf("pending after RunMore(%d)", prefix), params: gzip.Params, cfg: def, tape: 20000, prefix: prefix, n: 2000}
		if !wc.warmCPU(t).pending {
			continue
		}
		pending++
		wc.check(t)
	}
	if pending == 0 {
		t.Fatal("no RunMore prefix left a fetched instruction pending")
	}
}

// callsAcrossCodeEnd reports whether one of the first n instructions
// of p's stream is a call from the code's last instruction.
func callsAcrossCodeEnd(t *testing.T, p trace.Params, n int) bool {
	t.Helper()
	g, err := trace.NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if in := g.Next(); in.Class == trace.Call && in.Addr == trace.CodeBase {
			return true
		}
	}
	return false
}
