package obs

import "time"

// Outcome classifies the result of one evaluation attempt. The
// runner, which knows its own error types, performs the
// classification so this package stays dependency-free.
type Outcome uint8

const (
	// OK marks a successful attempt.
	OK Outcome = iota
	// Errored marks an attempt that failed with an ordinary error.
	Errored
	// Panicked marks an attempt that crashed and was recovered.
	Panicked
)

// String returns the lowercase event-schema name of the outcome.
func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case Errored:
		return "error"
	case Panicked:
		return "panic"
	}
	return "unknown"
}

// Recorder observes the lifecycle of a fault-tolerant evaluation. It
// is the one way to observe a campaign: the runner, the dist layer and
// the experiment harness report every row, lease and commit event
// through it. Implementations must be safe for concurrent use:
// the runner invokes them from every worker goroutine. Methods must
// not block — they sit on the evaluation hot path.
//
// Nop is the do-nothing default (a nil Recorder in runner.Config and
// experiment.Options means Nop); Metrics aggregates events into
// counters and histograms; JSONL journals them to a file; Multi fans
// out to several recorders at once. A recorder that cares about a few
// events embeds Nop and overrides those.
type Recorder interface {
	DistRecorder
	// SuiteStarted announces a whole campaign: its checkpoint
	// fingerprint, the number of benchmarks, and the design rows per
	// benchmark. Emitted by the experiment harness before the first
	// row runs; may be emitted again when one process chains several
	// suites (e.g. pbenhance's base and enhanced phases).
	SuiteStarted(fingerprint string, benchmarks, rowsPerBenchmark int)
	// RunStarted announces one runner evaluation (one benchmark's
	// rows under the given scope).
	RunStarted(scope string, rows int)
	// QueueWait reports how long a row sat queued between the start
	// of the evaluation and its attempt.
	QueueWait(scope string, row int, wait time.Duration)
	// WorkerActive moves the busy-worker gauge by delta (+1 when a
	// worker picks up a row, -1 when it finishes one).
	WorkerActive(delta int)
	// AttemptDone reports one attempt's latency and classified
	// outcome; err is nil exactly when outcome is OK. The runner
	// attempts every row once, so attempt is always 0.
	AttemptDone(scope string, row, attempt int, latency time.Duration, outcome Outcome, err error)
	// RowFinished reports a completed row: attempts is 1 for a
	// simulated row. fromCheckpoint marks rows restored from the
	// journal rather than simulated; those carry zero latency and
	// zero attempts.
	RowFinished(scope string, row int, value float64, latency time.Duration, attempts int, fromCheckpoint bool)
	// RowFailed reports a row whose attempt failed or panicked;
	// attempts is always 1.
	RowFailed(scope string, row, attempts int, err error)
	// RunFinished closes the scope opened by RunStarted.
	RunFinished(scope string, elapsed time.Duration)
}

// Nop is the do-nothing Recorder. Every method is an empty,
// allocation-free shim, so observed code paths cost nothing beyond
// the interface calls and their clock reads; see the benchmark in
// internal/runner proving 0 allocs/op on the evaluation hot path.
type Nop struct{}

// SuiteStarted implements Recorder.
func (Nop) SuiteStarted(string, int, int) {}

// RunStarted implements Recorder.
func (Nop) RunStarted(string, int) {}

// QueueWait implements Recorder.
func (Nop) QueueWait(string, int, time.Duration) {}

// WorkerActive implements Recorder.
func (Nop) WorkerActive(int) {}

// AttemptDone implements Recorder.
func (Nop) AttemptDone(string, int, int, time.Duration, Outcome, error) {}

// RowFinished implements Recorder.
func (Nop) RowFinished(string, int, float64, time.Duration, int, bool) {}

// RowFailed implements Recorder.
func (Nop) RowFailed(string, int, int, error) {}

// RunFinished implements Recorder.
func (Nop) RunFinished(string, time.Duration) {}

// multi fans every event out to each recorder in order.
type multi []Recorder

// Multi combines recorders; nil entries are dropped. Zero or one
// effective recorder collapses to Nop or the recorder itself.
func Multi(recs ...Recorder) Recorder {
	var m multi
	for _, r := range recs {
		if r != nil {
			m = append(m, r)
		}
	}
	switch len(m) {
	case 0:
		return Nop{}
	case 1:
		return m[0]
	}
	return m
}

func (m multi) SuiteStarted(fp string, benchmarks, rows int) {
	for _, r := range m {
		r.SuiteStarted(fp, benchmarks, rows)
	}
}

func (m multi) RunStarted(scope string, rows int) {
	for _, r := range m {
		r.RunStarted(scope, rows)
	}
}

func (m multi) QueueWait(scope string, row int, wait time.Duration) {
	for _, r := range m {
		r.QueueWait(scope, row, wait)
	}
}

func (m multi) WorkerActive(delta int) {
	for _, r := range m {
		r.WorkerActive(delta)
	}
}

func (m multi) AttemptDone(scope string, row, attempt int, latency time.Duration, outcome Outcome, err error) {
	for _, r := range m {
		r.AttemptDone(scope, row, attempt, latency, outcome, err)
	}
}

func (m multi) RowFinished(scope string, row int, value float64, latency time.Duration, attempts int, fromCheckpoint bool) {
	for _, r := range m {
		r.RowFinished(scope, row, value, latency, attempts, fromCheckpoint)
	}
}

func (m multi) RowFailed(scope string, row, attempts int, err error) {
	for _, r := range m {
		r.RowFailed(scope, row, attempts, err)
	}
}

func (m multi) RunFinished(scope string, elapsed time.Duration) {
	for _, r := range m {
		r.RunFinished(scope, elapsed)
	}
}
