package main

import (
	"context"
	"testing"

	"pbsim/internal/enhance"
	"pbsim/internal/experiment"
	"pbsim/internal/pb"
	"pbsim/internal/sim"
	"pbsim/internal/workload"
)

// TestRunOneMatchesResponse: GIVEN gzip on the all-high configuration,
// WHEN runOne simulates it unenhanced, with a 128-entry precomputation
// table and with a 128-entry value-reuse table, THEN it reports the
// cycle count the experiment harness gives the all-high design row
// under the same enhancement: a single simrun simulation and a PB row
// are the same simulation.
func TestRunOneMatchesResponse(t *testing.T) {
	const n, warmup = 2000, 500
	cfg, err := selectConfig("all-high")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	levels := make([]pb.Level, 43)
	for i := range levels {
		levels[i] = pb.High
	}
	for _, label := range []string{"base", "precompute-128", "valuereuse-128"} {
		enh, err := enhance.ParseSpec(label)
		if err != nil {
			t.Fatal(err)
		}
		want, err := experiment.Response(w, warmup, n, enh)(context.Background(), levels)
		if err != nil {
			t.Fatal(err)
		}
		text, got, err := runOne("gzip", cfg, n, warmup, enh)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || text == "" {
			t.Errorf("%s: runOne reports %.0f cycles, the all-high row %.0f", label, got, want)
		}
	}
}

// TestRunOneRejectsNegativeWarmup: a negative -warmup is an error, not
// a run.
func TestRunOneRejectsNegativeWarmup(t *testing.T) {
	if _, _, err := runOne("gzip", sim.Default(), 1000, -1, enhance.Spec{}); err == nil {
		t.Fatal("runOne accepted warmup -1")
	}
}
