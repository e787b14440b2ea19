package sim

import (
	"fmt"
	"math/bits"
	"testing"

	"pbsim/internal/pb"
	"pbsim/internal/sim/pipeline"
	"pbsim/internal/workload"
)

// stepTo is runTo without the idle-cycle jump: the reference clock the
// event-driven one must reproduce. At the first cycle of every idle
// stretch it asks nextEvent for its answer, and at the next cycle in
// which a stage acts it checks that the answer was not late, that is
// that jumping would not have skipped the event. After every stage it
// checks the issue candidates against a rescan of the ROB
// (checkWakeup). It returns the number of idle cycles it stepped
// through.
func stepTo(t *testing.T, c *CPU, target int64) (idle int64) {
	t.Helper()
	c.stopAt = target
	maxCycles := c.cycle + (target-c.committed)*2000 + 100000
	promised := int64(-1) // nextEvent's answer for the current idle stretch
	for c.committed < target {
		c.cycle++
		committed := c.commitStage()
		checkWakeup(t, c, "commit")
		issued := c.issueStage()
		checkWakeup(t, c, "issue")
		dispatched := c.dispatchStage()
		checkWakeup(t, c, "dispatch")
		fetched := c.fetchStage()
		checkWakeup(t, c, "fetch")
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

// operandsAt returns the cycle from which both source operands of e
// are available, read straight off the readiness ring:
// pipeline.NotReady while a producer has not issued. The dependencies
// come from e's instruction in the fetch ring.
func operandsAt(c *CPU, e *pipeline.Entry) int64 {
	in := c.instrs[e.Seq&c.instrMask].Unpack()
	at := int64(0)
	if d := in.Dep1; d > 0 {
		at = c.readyRing[(e.Seq-int64(d))&c.ringMask]
	}
	if d := in.Dep2; d > 0 {
		at = max(at, c.readyRing[(e.Seq-int64(d))&c.ringMask])
	}
	return at
}

// checkWakeup is the brute-force reference for the issue candidates:
// it rescans every ROB slot and fails unless the slots the candidate
// walk visits are exactly the unissued entries whose operands have a
// known ready cycle (operandsAt), and each candidate's cached OpsAt
// equals that cycle.
func checkWakeup(t *testing.T, c *CPU, stage string) {
	t.Helper()
	rob := c.rob
	// Slot s holds the entry (s-head) mod capacity places from the head.
	capacity, head := rob.Capacity(), 0
	if h := rob.Head(); h != nil {
		for rob.Slot(head) != h {
			head++
		}
	}
	// The oldest-first walk must visit each candidate slot once.
	cand := make([]bool, capacity)
	for k, n := 0, rob.AgeWords(); k < n; k++ {
		base, word := rob.AgeWord(k)
		for ; word != 0; word &= word - 1 {
			s := base + bits.TrailingZeros64(word)
			if s >= capacity || cand[s] {
				t.Fatalf("cycle %d after %s: the candidate walk visits slot %d of %d twice or past the end", c.cycle, stage, s, capacity)
			}
			cand[s] = true
		}
	}
	for s, bit := range cand {
		want := false
		e := rob.Slot(s)
		if (s-head+capacity)%capacity < rob.Len() {
			want = !e.Issued && operandsAt(c, e) != pipeline.NotReady
		}
		if bit != want {
			t.Fatalf("cycle %d after %s: slot %d candidate bit %v, rescan says %v", c.cycle, stage, s, bit, want)
		}
		if want && e.OpsAt != operandsAt(c, e) {
			t.Fatalf("cycle %d after %s: slot %d (seq %d) caches OpsAt %d, operands ready at %d", c.cycle, stage, s, e.Seq, e.OpsAt, operandsAt(c, e))
		}
	}
}

// clockRun is one machine and stream the event-driven clock is checked
// against stepping on.
type clockRun struct {
	name       string
	cfg        Config
	bench      string
	prewarm    bool
	precompute bool // run with shortcutAll
}

// compareClocks runs each configuration twice, once through Run's
// event-driven clock and once stepping every cycle (stepTo, which
// checks the wakeup state at every stage). Every Stats field must
// agree. It returns the idle and total stepped cycles.
func compareClocks(t *testing.T, runs []clockRun) (idle, cycles int64) {
	t.Helper()
	const warmup, n = 500, 2500
	for _, r := range runs {
		var evShort, stShort ComputeShortcut
		if r.precompute {
			evShort, stShort = &shortcutAll{}, &shortcutAll{}
		}
		event, err := New(r.cfg, testGen(t, r.bench), evShort)
		if err != nil {
			t.Fatal(err)
		}
		step, err := New(r.cfg, testGen(t, r.bench), stShort)
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
	return idle, cycles
}

// TestEventClockMatchesStepping runs design rows of every benchmark,
// the degenerate machines and a cold-cache run twice: once through
// Run's event-driven clock and once stepping every cycle. Every Stats
// field must agree, nextEvent must never promise an event later than
// the one that happens, and the issue candidates must match a rescan
// of the ROB after every stage.
func TestEventClockMatchesStepping(t *testing.T) {
	var runs []clockRun
	design, err := pb.New(len(Factors()), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range workload.Names() {
		for row := 3; row < design.Runs(); row += 17 {
			runs = append(runs, clockRun{name: fmt.Sprintf("%s row %d", bench, row), cfg: ConfigForLevels(design.Row(row)), bench: bench, prewarm: true})
		}
	}
	for _, tc := range degenerateConfigs {
		cfg := Default()
		tc.mutate(&cfg)
		runs = append(runs, clockRun{name: "mcf " + tc.name, cfg: cfg, bench: "mcf", prewarm: true})
	}
	runs = append(runs, clockRun{name: "art cold", cfg: Default(), bench: "art"})

	idle, cycles := compareClocks(t, runs)
	t.Logf("%d runs, %d of %d stepped cycles idle (%.1f%%)", len(runs), idle, cycles, 100*float64(idle)/float64(cycles))
}

// TestWakeupAcrossROBSizes steps ROBs around the candidate bitset's
// 64-slot word edges, so the oldest-first walk wraps inside a word and
// across words, and a run in which every compute instruction with a
// redundant-computation identity is precomputed (shortcutAll), so
// precomputed entries must never become candidates. The candidates
// must match a rescan of the ROB after every stage, and the
// event-driven clock must match stepping.
func TestWakeupAcrossROBSizes(t *testing.T) {
	var runs []clockRun
	for _, rob := range []int{1, 63, 64, 65, 128, 192, 500} {
		cfg := Default()
		cfg.ROBEntries = rob
		runs = append(runs, clockRun{name: fmt.Sprintf("art ROB %d", rob), cfg: cfg, bench: "art", prewarm: true})
	}
	runs = append(runs, clockRun{name: "gzip precompute", cfg: Default(), bench: "gzip", prewarm: true, precompute: true})
	compareClocks(t, runs)
}
