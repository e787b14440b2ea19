package sim

import (
	"os/exec"
	"strings"
	"testing"
)

// TestHotPathInlined pins the compiler's inlining of the per-cycle
// issue and dispatch helpers. Each runs once per candidate or operand
// in the simulator's innermost loops; one of them silently dropping
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
