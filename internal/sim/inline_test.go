package sim

import (
	"os/exec"
	"strings"
	"testing"
	"unsafe"

	"pbsim/internal/sim/pipeline"
	"pbsim/internal/trace"
)

// TestHotPathInlined pins the compiler's inlining of the per-cycle
// issue and dispatch helpers and of the packed-instruction accessors
// every stage reads the fetch ring through. Each runs once per
// candidate, operand or instruction in the simulator's innermost loops; one of them silently dropping
// out of the inliner (a few more nodes of cost) once made a full
// campaign about 30% slower while every result stayed the same. It
// reads the inlining decisions `go build -gcflags=-m` prints.
func TestHotPathInlined(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not found")
	}
	out, err := exec.Command(goBin, "build", "-gcflags=-m", "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	// Each call site must be inlined in the named file.
	for _, pin := range []struct{ file, callee string }{
		{"cpu.go", "(*CPU).operand"},
		{"cpu.go", "pipeline.(*ROB).Await"},
		{"cpu.go", "pipeline.(*ROB).Arm"},
		{"cpu.go", "pipeline.(*ROB).AgeWords"},
		{"cpu.go", "pipeline.(*ROB).AgeWord"},
		{"cpu.go", "pipeline.(*ROB).Slot"},
		{"cpu.go", "bpred.(*TwoLevel).Predict"},
		{"cpu.go", "(*CPU).instr"},
		{"cpu.go", "(*CPU).ifqFull"},
		{"cpu.go", "trace.Packed.Class"},
		{"cpu.go", "trace.Packed.PC"},
		{"cpu.go", "trace.Packed.Dep1"},
		{"cpu.go", "trace.Packed.Dep2"},
		{"cpu.go", "trace.Packed.Taken"},
		{"cpu.go", "trace.Packed.Target"},
		{"cpu.go", "trace.Packed.Addr"},
		{"cpu.go", "trace.Packed.CompID"},
		{"cpu.go", "trace.Packed.FallThrough"},
		{"pipeline/rob.go", "(*ROB).wake"},
	} {
		if !inlinedIn(string(out), pin.file, pin.callee) {
			t.Errorf("%s: the call to %s is not inlined", pin.file, pin.callee)
		}
	}
}

// inlinedIn reports whether the compiler's -m output records inlining
// a call to callee in file, a path relative to this package.
func inlinedIn(out, file, callee string) bool {
	for _, line := range strings.Split(out, "\n") {
		pos, msg, ok := strings.Cut(line, ": ")
		path, _, _ := strings.Cut(pos, ":")
		if ok && strings.HasSuffix("/"+path, "/"+file) && msg == "inlining call to "+callee {
			return true
		}
	}
	return false
}

// TestHotPathLayout pins the size of what the pipeline keeps per
// instruction in flight: the packed record in the fetch ring (PC
// offset, class and dependency word, payload) and the ROB entry, which
// holds only per-run state beside the class. Copying a 56-byte
// trace.Instr through fetch, the IFQ and the ROB cost about a tenth of
// a campaign's time, so a field added to either must not quietly
// regrow the copy.
func TestHotPathLayout(t *testing.T) {
	if n := unsafe.Sizeof(trace.Packed{}); n != 12 {
		t.Errorf("trace.Packed is %d bytes, want 12", n)
	}
	if n := unsafe.Sizeof(pipeline.Entry{}); n > 48 {
		t.Errorf("pipeline.Entry is %d bytes, want at most 48", n)
	}
}
