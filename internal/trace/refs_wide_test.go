package trace

import "testing"

// TestRefsWideOffsets: GIVEN a view of a program whose code and data
// reach past 4 GiB of their bases, WHEN its accessors decode it, THEN
// the upper halves of its offsets come back. (No test window can walk
// code that far: it would take hundreds of millions of instructions.)
func TestRefsWideOffsets(t *testing.T) {
	v := Refs{
		n: 3, wide: true,
		runs: []run{{off: 8, len: 2}}, runHi: []uint32{1},
		mem: []memRef{{off: 16, pos: 1}}, memHi: []uint32{2},
		ctrl: []ctrlRef{{pc: 12, target: 4, class: Call, taken: true}}, pcHi: []uint32{1}, targetHi: []uint32{3},
	}
	if pc, n := v.Run(0); pc != CodeBase+1<<32+8 || n != 2 {
		t.Errorf("Run(0) = %#x, %d", pc, n)
	}
	if addr, pos := v.Mem(0); addr != DataBase+2<<32+16 || pos != 1 {
		t.Errorf("Mem(0) = %#x, %d", addr, pos)
	}
	pc := CodeBase + 1<<32 + 12
	want := Instr{PC: pc, Class: Call, Taken: true, Target: CodeBase + 3<<32 + 4, Addr: pc + 4}
	if got := v.Ctrl(0); got != want {
		t.Errorf("Ctrl(0) = %+v, want %+v", got, want)
	}
}
