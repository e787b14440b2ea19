package experiment

import (
	"flag"
	"fmt"

	"pbsim/internal/runner"
)

// SizeFlags holds the run-size flag family the suite-running CLIs
// share: -n, -warmup and -par.
type SizeFlags struct {
	Instructions int64
	Warmup       int64
	Par          int
}

// RegisterSizeFlags registers the run-size flag family on fs with the
// experiment's defaults. The returned SizeFlags is filled in when fs
// is parsed.
func RegisterSizeFlags(fs *flag.FlagSet) *SizeFlags {
	f := &SizeFlags{}
	fs.Int64Var(&f.Instructions, "n", DefaultInstructions, "instructions measured per configuration")
	fs.Int64Var(&f.Warmup, "warmup", DefaultWarmup, "warmup instructions per configuration")
	fs.IntVar(&f.Par, "par", 0, "parallel simulations (default GOMAXPROCS)")
	return f
}

// Apply copies the flags into opts.
func (f *SizeFlags) Apply(opts *Options) {
	opts.Instructions = f.Instructions
	opts.Warmup = f.Warmup
	opts.Parallelism = f.Par
}

// RunFlags holds the run-control flag family every suite-running CLI
// shares: -checkpoint.
type RunFlags struct {
	Checkpoint string
}

// RegisterRunFlags registers the run-control flag family on fs. The
// returned RunFlags is filled in when fs is parsed, so every CLI
// shares the same flag names, defaults and help text.
func RegisterRunFlags(fs *flag.FlagSet) *RunFlags {
	f := &RunFlags{}
	fs.StringVar(&f.Checkpoint, "checkpoint", "", "campaign directory: completed simulations are committed there, and rerunning with the same flags resumes")
	return f
}

// Apply copies the flags into opts.
func (f *RunFlags) Apply(opts *Options) {
	opts.Checkpoint = f.Checkpoint
}

// Resumable adds the resume hint to the error of a checkpointed run
// that was interrupted; any other error is returned unchanged.
func (f *RunFlags) Resumable(err error) error {
	if err == nil || f.Checkpoint == "" || !runner.Cancelled(err) {
		return err
	}
	return fmt.Errorf("%w (completed simulations are saved; rerun with -checkpoint %s to resume)", err, f.Checkpoint)
}
