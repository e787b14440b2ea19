package experiment

import (
	"context"
	"errors"
	"flag"
	"io"
	"strings"
	"testing"
)

func parseRunFlags(t *testing.T, args ...string) *RunFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := RegisterRunFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRegisterRunFlags(t *testing.T) {
	var opts Options
	parseRunFlags(t).Apply(&opts)
	if opts.Checkpoint != "" {
		t.Fatalf("defaults = %+v, want zero run options", opts)
	}
	f := parseRunFlags(t, "-checkpoint", "camp")
	f.Apply(&opts)
	if opts.Checkpoint != "camp" {
		t.Fatalf("parsed = %+v", opts)
	}
	if err := f.Resumable(context.Canceled); !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "-checkpoint camp") {
		t.Errorf("interrupted checkpointed run: %v, want the resume hint", err)
	}
	other := errors.New("boom")
	if err := f.Resumable(other); err != other {
		t.Errorf("non-cancellation error rewritten: %v", err)
	}
	if err := parseRunFlags(t).Resumable(context.Canceled); err != context.Canceled {
		t.Errorf("run without -checkpoint got a resume hint: %v", err)
	}
}

func TestRegisterRunFlagsRejectsBadValues(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	RegisterRunFlags(fs)
	if err := fs.Parse([]string{"-checkpoint"}); err == nil {
		t.Error("-checkpoint without a directory accepted")
	}
}

func TestRegisterSizeFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want Options
	}{
		{nil, Options{Instructions: DefaultInstructions, Warmup: DefaultWarmup}},
		{[]string{"-n", "3000", "-warmup", "1500", "-par", "4"}, Options{Instructions: 3000, Warmup: 1500, Parallelism: 4}},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := RegisterSizeFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		var opts Options
		f.Apply(&opts)
		if opts.Instructions != tc.want.Instructions || opts.Warmup != tc.want.Warmup || opts.Parallelism != tc.want.Parallelism {
			t.Errorf("%v: got n=%d warmup=%d par=%d, want %d/%d/%d", tc.args,
				opts.Instructions, opts.Warmup, opts.Parallelism, tc.want.Instructions, tc.want.Warmup, tc.want.Parallelism)
		}
	}
}
