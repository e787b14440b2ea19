package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"pbsim/internal/obs"
	"pbsim/internal/runner"
)

// Task computes one unit: the response value for row of scope. It
// must be deterministic — the whole merge contract rests on a unit
// producing bit-identical values no matter which worker runs it, or
// how many times.
type Task func(ctx context.Context, scope string, row int) (float64, error)

// Config tunes one worker process.
type Config struct {
	// ID names this worker; it becomes the shard ledger filename and
	// the lease owner string, so it must be unique among live workers
	// and path-safe. Empty is an error.
	ID string
	// LeaseTTL is how long a claimed lease lives without a heartbeat
	// before any other worker may steal it. Default 10s.
	LeaseTTL time.Duration
	// Heartbeat is the lease renewal period. Default LeaseTTL/3.
	// Negative disables heartbeating entirely — a worker that stalls
	// mid-unit then looks dead and gets its unit stolen, which the
	// chaos harness uses to exercise the steal path deliberately.
	Heartbeat time.Duration
	// Poll is how long to wait between passes when every remaining
	// unit is leased by someone else. Default LeaseTTL/4.
	Poll time.Duration
	// Sync fsyncs the shard ledger after every commit, extending
	// durability from process death to machine death.
	Sync bool
	// Scope, when set, prefixes every unit's scope in row events
	// ("Scope/unit"), as pb suites name benchmark scopes under a
	// label.
	Scope string
	// Wrap, when non-nil, decorates each unit's task (the
	// fault-injection hook, runner.Faults.Wrap), which sees the unit's
	// real campaign row. The unit's context carries the caller's
	// cancellation only.
	Wrap func(runner.Task) runner.Task
	// Recorder observes lease and commit events, restored rows and
	// per-row runner events. Nil means obs.Nop.
	Recorder obs.Recorder
	// now overrides the clock in tests.
	now func() time.Time
}

func (cfg *Config) fill() error {
	if cfg.ID == "" {
		return errors.New("dist: worker needs a non-empty ID")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = cfg.LeaseTTL / 3
	}
	if cfg.Poll <= 0 {
		cfg.Poll = cfg.LeaseTTL / 4
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	if cfg.Recorder == nil {
		cfg.Recorder = obs.Nop{}
	}
	return nil
}

// WorkerStats summarizes one RunWorker call.
type WorkerStats struct {
	Claimed   int  // leases acquired, including steals
	Stolen    int  // of Claimed, how many reclaimed expired leases
	Committed int  // units this worker durably committed
	Passes    int  // scans over the unit list
	Crashed   bool // the worker died at an injected crash point
}

// unitError records one unit this worker failed permanently.
type unitError struct {
	Unit
	Err error
}

func (e unitError) Error() string { return fmt.Sprintf("%s: %v", e.Unit, e.Err) }
func (e unitError) Unwrap() error { return e.Err }

// RunWorker executes campaign units from dir until the campaign is
// complete, the context is cancelled, or an injected crash kills the
// worker. It is the entire worker protocol:
//
//	pass:
//	  for each unit not known done, rotated by worker ID so workers
//	  start in different places:
//	    refresh the done set from the shard ledgers; done → skip
//	    claim its lease (stealing if expired); held elsewhere → skip
//	    refresh again: the previous holder may have committed and
//	    released in between → release, skip
//	    heartbeat the lease in the background
//	    run the unit once through runner.EvaluateRow under its
//	    campaign row (panic recovery)
//	    success → append to this worker's shard ledger, release lease
//	    injected crash → return immediately, lease deliberately NOT
//	    released: the process is "dead", the lease must expire and be
//	    stolen, exactly as a real death
//	    ctx cancelled or past its deadline → release lease, return
//	    other failure → record, release lease, move on
//	  nothing left but failed units → done
//	  no unit claimable and campaign incomplete → poll-sleep, rescan
//	    (another worker holds the rest; it will finish or its leases
//	    will expire)
//
// A crash "death" returns runner.ErrCrash with Crashed=true so a
// chaos harness can restart the worker in a loop. A failed unit is not
// executed again in this run: unit failures are aggregated and
// returned once every unit has been decided (done by someone, or
// failed here).
func RunWorker(ctx context.Context, dir string, task Task, cfg Config) (WorkerStats, error) {
	var stats WorkerStats
	if err := cfg.fill(); err != nil {
		return stats, err
	}
	c, err := Open(dir)
	if err != nil {
		return stats, err
	}
	led, err := openLedger(dir, cfg.ID, c.man.Fingerprint, cfg.Sync)
	if err != nil {
		return stats, err
	}
	defer led.Close() //pbcheck:ignore errdiscard commit errors are sticky and already returned by Commit; the success path closes explicitly

	units := c.man.Units()
	// Rotate the scan start by a hash of the worker ID so N workers
	// fan out across the campaign instead of convoying on unit 0.
	first := rotation(cfg.ID, len(units))
	failed := make(map[Unit]unitError)
	tail := newShardTail(c)

	for {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		stats.Passes++
		remaining := 0
		progressed := false
		for i := range units {
			u := units[(i+first)%len(units)]
			if _, ok := failed[u]; ok || tail.done[u] {
				continue
			}
			// Other workers commit throughout a pass: refresh before
			// every claim, not once per pass.
			if err := tail.refresh(); err != nil {
				return stats, err
			}
			if tail.done[u] {
				continue
			}
			remaining++
			if err := ctx.Err(); err != nil {
				return stats, err
			}
			res, err := claim(dir, u, cfg.ID, cfg.LeaseTTL, cfg.now())
			if err != nil {
				return stats, err
			}
			if res == claimHeld {
				continue
			}
			stats.Claimed++
			if res == claimStolen {
				stats.Stolen++
			}
			cfg.Recorder.LeaseClaimed(u.Scope, u.Row, res == claimStolen)

			// Units change hands via steals and releases; the previous
			// holder may have committed since the refresh above.
			if err := tail.refresh(); err != nil {
				release(dir, u, cfg.ID)
				return stats, err
			}
			if tail.done[u] {
				release(dir, u, cfg.ID)
				progressed = true
				continue
			}

			stop := startHeartbeat(dir, u, &cfg)
			v, rerr := runUnit(ctx, u, task, cfg)
			stop()
			if rerr != nil {
				if errors.Is(rerr, runner.ErrCrash) {
					// Simulated process death: vanish without releasing
					// the lease, exactly as a kill -9 would. The lease
					// expires; another worker (or our restarted self)
					// steals it.
					stats.Crashed = true
					if cerr := led.Close(); cerr != nil {
						return stats, cerr
					}
					return stats, rerr
				}
				if errors.Is(rerr, context.Canceled) || errors.Is(rerr, context.DeadlineExceeded) {
					release(dir, u, cfg.ID)
					return stats, rerr
				}
				failed[u] = unitError{Unit: u, Err: rerr}
				release(dir, u, cfg.ID)
				progressed = true
				continue
			}
			if err := led.Commit(u.Scope, u.Row, v); err != nil {
				release(dir, u, cfg.ID)
				return stats, fmt.Errorf("dist: commit %s: %w", u, err)
			}
			stats.Committed++
			cfg.Recorder.CommitAppended(cfg.ID, u.Scope, u.Row)
			release(dir, u, cfg.ID)
			progressed = true
		}
		if remaining == 0 {
			if len(failed) > 0 {
				errs := make([]error, 0, len(failed))
				for _, u := range units {
					if fe, ok := failed[u]; ok {
						errs = append(errs, fe)
					}
				}
				if cerr := led.Close(); cerr != nil {
					errs = append(errs, cerr)
				}
				return stats, fmt.Errorf("dist: %d units failed permanently: %w", len(failed), errors.Join(errs...))
			}
			return stats, led.Close()
		}
		if !progressed {
			// Everything left is leased elsewhere. Wait for those
			// workers to finish or their leases to expire.
			select {
			case <-ctx.Done():
				return stats, ctx.Err()
			case <-time.After(cfg.Poll):
			}
		}
	}
}

// Run executes the campaign at dir in this process: workers
// concurrent RunWorker calls (GOMAXPROCS when workers <= 0) named
// cfg.ID-w0, cfg.ID-w1, ... (cfg.ID defaults to host-pid), then a
// merge, which it returns once complete. It is how a checkpointed run
// resumes: units committed before Run starts — by an interrupted
// earlier run, or by other processes — are not executed again, and
// each is reported once to cfg.Recorder as a restored row
// (RowFinished with fromCheckpoint=true). The first worker error is
// returned. cfg.Poll defaults to runPoll rather than LeaseTTL/4: at
// the end of a campaign the units an idle worker waits for are mostly
// held by its siblings in this process, which commit them in a row's
// time, not a lease's.
func Run(ctx context.Context, dir string, task Task, workers int, cfg Config) (*MergeResult, error) {
	c, err := Open(dir)
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Poll <= 0 {
		cfg.Poll = runPoll
	}
	if cfg.ID == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		cfg.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if err := c.reportRestored(cfg); err != nil {
		return nil, err
	}
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wcfg := cfg
		wcfg.ID = fmt.Sprintf("%s-w%d", cfg.ID, w)
		//pbcheck:ignore leakygo worker goroutines terminate via ctx cancellation inside RunWorker and are joined by the errs receive loop below
		go func() {
			_, err := RunWorker(ctx, dir, task, wcfg)
			errs <- err
		}()
	}
	var firstErr error
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	res, err := c.Merge(cfg.Recorder)
	if err != nil {
		return nil, err
	}
	if !res.Complete() {
		return nil, fmt.Errorf("dist: campaign %s incomplete: %d units missing", dir, len(res.Missing))
	}
	return res, nil
}

// runPoll is Run's default wait between passes that found every
// remaining unit leased elsewhere.
const runPoll = 50 * time.Millisecond

// reportRestored reports every unit the campaign has already
// committed as a restored row.
func (c *Campaign) reportRestored(cfg Config) error {
	res, err := c.Merge(nil)
	if err != nil {
		return err
	}
	for _, u := range c.man.Units() {
		v := res.Values[u.Scope][u.Row]
		if math.IsNaN(v) {
			continue
		}
		cfg.Recorder.RowFinished(cfg.rowScope(u), u.Row, v, 0, 0, true)
	}
	return nil
}

// runUnit executes one unit once through runner.EvaluateRow under its
// real campaign row, inheriting the runner's panic recovery and
// cfg.Wrap's fault injection.
func runUnit(ctx context.Context, u Unit, task Task, cfg Config) (float64, error) {
	return runner.EvaluateRow(ctx, func(ctx context.Context, row int) (float64, error) {
		return task(ctx, u.Scope, row)
	}, u.Row, runner.Config{Scope: cfg.rowScope(u), Wrap: cfg.Wrap, Recorder: cfg.Recorder})
}

// rowScope is the scope u's row events carry: the unit's scope, under
// cfg.Scope when that is set — the "label/benchmark" form pb suites
// report.
func (cfg *Config) rowScope(u Unit) string {
	if cfg.Scope == "" {
		return u.Scope
	}
	return cfg.Scope + "/" + u.Scope
}

// startHeartbeat renews the lease on u every cfg.Heartbeat until the
// returned stop function is called. A renewal that finds the lease
// lost reports it and stops renewing — the unit keeps executing; its
// commit stays safe because merge proves duplicates identical.
func startHeartbeat(dir string, u Unit, cfg *Config) (stop func()) {
	if cfg.Heartbeat < 0 {
		return func() {}
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(cfg.Heartbeat)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				ok, err := renew(dir, u, cfg.ID, cfg.LeaseTTL, cfg.now())
				if err != nil || !ok {
					if !ok {
						cfg.Recorder.LeaseLost(u.Scope, u.Row)
					}
					return
				}
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// shardTail follows the campaign's shard ledgers incrementally: per
// file it keeps the offset just past the last complete line it parsed,
// so a refresh stats every shard but reads only what was appended
// since. An offset always sits on a line boundary and truncateTornTail
// only cuts after a file's last newline, so truncation never pulls a
// file below an offset; a file that shrinks anyway (rewritten by hand)
// is re-read from the start. The done set only grows.
type shardTail struct {
	c    *Campaign
	off  map[string]int64
	done map[Unit]bool
}

func newShardTail(c *Campaign) *shardTail {
	return &shardTail{c: c, off: make(map[string]int64), done: make(map[Unit]bool)}
}

// refresh folds every complete line appended since the last refresh
// into the done set. A shard that cannot be read contributes nothing;
// Merge, the authority on results, quarantines it.
func (t *shardTail) refresh() error {
	paths, err := t.c.shardPaths()
	if err != nil {
		return err
	}
	for _, p := range paths {
		t.read(p)
	}
	return nil
}

func (t *shardTail) read(path string) {
	fi, err := os.Stat(path)
	if err != nil {
		return
	}
	off := t.off[path]
	if fi.Size() < off {
		off = 0
	}
	if fi.Size() == off {
		return
	}
	f, err := os.Open(path)
	if err != nil {
		return
	}
	defer f.Close() //pbcheck:ignore errdiscard read-only handle; a close error cannot lose data
	buf := make([]byte, fi.Size()-off)
	n, err := f.ReadAt(buf, off)
	if err != nil && !errors.Is(err, io.EOF) {
		return
	}
	buf = buf[:completeLines(buf[:n])]
	entries, _ := parseLedger(buf, t.c.man.Fingerprint)
	for _, e := range entries {
		t.done[e.Unit] = true
	}
	t.off[path] = off + int64(len(buf))
}

// rotation maps a worker ID to a stable scan offset in [0, n).
func rotation(id string, n int) int {
	if n <= 0 {
		return 0
	}
	h := uint64(1469598103934665603) // FNV-1a
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return int(h % uint64(n))
}
