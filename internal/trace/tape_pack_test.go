package trace

import "testing"

// TestPackRoundTrip: GIVEN a stream of every instruction shape,
// including a call and a not-taken branch that end the code and fall
// through to its start, WHEN it is packed and replayed, THEN it comes
// back unchanged, PCs included.
func TestPackRoundTrip(t *testing.T) {
	const end = CodeBase + 1<<20
	want := []Instr{
		{PC: CodeBase, Class: IntALU, Dep1: 64, Dep2: 1},
		{PC: CodeBase + 4, Class: FPMult, Dep1: 3, CompID: 1<<32 - 1},
		{PC: CodeBase + 8, Class: Load, Dep1: 2, Addr: DataBase + 6<<20 - 8},
		{PC: CodeBase + 12, Class: Branch, Dep1: 1},
		{PC: CodeBase + 16, Class: Branch, Taken: true, Target: CodeBase + 400},
		{PC: CodeBase + 400, Class: Call, Taken: true, Target: end - 8, Addr: CodeBase + 404},
		{PC: end - 8, Class: Store, Addr: DataBase},
		{PC: end - 4, Class: Call, Taken: true, Target: CodeBase + 64, Addr: CodeBase},
		{PC: CodeBase + 64, Class: Return, Dep1: 5, Taken: true, Target: end - 4},
		{PC: end - 4, Class: Branch},
		{PC: CodeBase, Class: IntDiv},
	}
	g, err := NewGenerator(testParams(1))
	if err != nil {
		t.Fatal(err)
	}
	g.tape, g.tapePC = &tape{pc: want[0].PC}, want[0].PC
	for _, in := range want {
		g.tape.recs = append(g.tape.recs, pack(in, end))
	}
	for i, in := range want {
		if got := g.Next(); got != in {
			t.Errorf("record %d: replayed %+v, packed %+v", i, got, in)
		}
	}
}
