package sampling

import (
	"flag"
	"io"
	"testing"
)

func parseSampleFlag(t *testing.T, args ...string) (*Spec, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := RegisterFlag(fs)
	err := fs.Parse(args)
	return f.Spec, err
}

func TestRegisterFlagOptIn(t *testing.T) {
	spec, err := parseSampleFlag(t)
	if err != nil || spec != nil {
		t.Fatalf("no -sample must yield (nil, nil), got (%v, %v)", spec, err)
	}
	spec, err = parseSampleFlag(t, "-sample", "est=stratified,frac=0.2,strata=6")
	if err != nil {
		t.Fatal(err)
	}
	// The spec the retired -sample-* flags gave for -sample stratified
	// -sample-frac 0.2 -sample-strata 6: their defaults, seed 1 included.
	want := Spec{Estimator: EstimatorStratified, RegionSize: DefaultRegionSize, Fraction: 0.2,
		RegionWarmup: -1, FuncWarmup: -1, Seed: 1, Strata: 6, SetSize: DefaultSetSize}.Normalized()
	if *spec != want {
		t.Fatalf("spec = %+v, want %+v", *spec, want)
	}
	// A bare estimator name is shorthand for est=<name>.
	bare, err := parseSampleFlag(t, "-sample", "uniform")
	if err != nil {
		t.Fatal(err)
	}
	long, err := parseSampleFlag(t, "-sample", "est=uniform,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	if *bare != *long {
		t.Fatalf("-sample uniform = %+v, -sample est=uniform,seed=1 = %+v", *bare, *long)
	}
}

func TestRegisterFlagRejectsBadSpec(t *testing.T) {
	for _, args := range [][]string{
		{"-sample", "nope"},
		{"-sample", "est=uniform,frac=1.5"},
		{"-sample", "uniform", "-sample-frac", "0.1"},
	} {
		if _, err := parseSampleFlag(t, args...); err == nil {
			t.Errorf("%q accepted", args)
		}
	}
}
