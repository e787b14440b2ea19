package sim

import (
	"fmt"
	"testing"

	"pbsim/internal/pb"
	"pbsim/internal/workload"
)

// stepTo is runTo without the idle-cycle jump: the reference clock the
// event-driven one must reproduce. At the first cycle of every idle
// stretch it asks nextEvent for its answer, and at the next cycle in
// which a stage acts it checks that the answer was not late, that is
// that jumping would not have skipped the event. It returns the number
// of idle cycles it stepped through.
func stepTo(t *testing.T, c *CPU, target int64) (idle int64) {
	t.Helper()
	c.stopAt = target
	maxCycles := c.cycle + (target-c.committed)*2000 + 100000
	promised := int64(-1) // nextEvent's answer for the current idle stretch
	for c.committed < target {
		c.cycle++
		committed := c.commitStage()
		issued := c.issueStage()
		dispatched := c.dispatchStage()
		fetched := c.fetchStage()
		switch {
		case committed || issued || dispatched || fetched:
			if c.cycle < promised {
				t.Fatalf("cycle %d: a stage acted, but nextEvent promised nothing before %d", c.cycle, promised)
			}
			promised = -1
		case promised < 0:
			idle++
			promised = c.nextEvent()
			if promised <= c.cycle {
				t.Fatalf("cycle %d: nextEvent returned %d, not a later cycle", c.cycle, promised)
			}
		default:
			idle++
		}
		if c.cycle > maxCycles {
			t.Fatalf("no forward progress after %d cycles", c.cycle)
		}
	}
	return idle
}

// TestEventClockMatchesStepping runs design rows of every benchmark,
// the degenerate machines and a cold-cache run twice: once through
// Run's event-driven clock and once stepping every cycle. Every Stats
// field must agree, and nextEvent must never promise an event later
// than the one that happens.
func TestEventClockMatchesStepping(t *testing.T) {
	const warmup, n = 500, 2500
	type run struct {
		name    string
		cfg     Config
		bench   string
		prewarm bool
	}
	var runs []run
	design, err := pb.New(len(Factors()), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range workload.Names() {
		for row := 3; row < design.Runs(); row += 17 {
			runs = append(runs, run{fmt.Sprintf("%s row %d", bench, row), ConfigForLevels(design.Row(row)), bench, true})
		}
	}
	for _, tc := range degenerateConfigs {
		cfg := Default()
		tc.mutate(&cfg)
		runs = append(runs, run{"mcf " + tc.name, cfg, "mcf", true})
	}
	runs = append(runs, run{"art cold", Default(), "art", false})

	var idle, cycles int64
	for _, r := range runs {
		event, err := New(r.cfg, testGen(t, r.bench), nil)
		if err != nil {
			t.Fatal(err)
		}
		step, err := New(r.cfg, testGen(t, r.bench), nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.prewarm {
			event.PrewarmMemory()
			step.PrewarmMemory()
		}
		want, err := event.RunWithWarmup(warmup, n)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		idle += stepTo(t, step, warmup)
		base := step.snapshot()
		idle += stepTo(t, step, warmup+n)
		if got := step.snapshot().sub(base); got != want {
			t.Errorf("%s: event-driven clock diverged from stepping:\nevent: %+v\nstep:  %+v", r.name, want, got)
		}
		cycles += step.cycle
	}
	t.Logf("%d runs, %d of %d stepped cycles idle (%.1f%%)", len(runs), idle, cycles, 100*float64(idle)/float64(cycles))
}
