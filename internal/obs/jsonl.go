package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// JSONL journals campaign lifecycle events as one JSON object per
// line, keyed by the same experiment fingerprint the checkpoint uses,
// so a metrics file and a checkpoint file from one campaign can be
// joined offline. It records the coarse events (suite/run lifecycle,
// row completions, failures, the final summary) and deliberately
// ignores the per-attempt firehose (AttemptDone, QueueWait,
// WorkerActive), which belongs in Metrics; embed both via Multi to get
// aggregates and the journal at once.
//
// Event schema (field `t` selects the type):
//
//	{"t":"suite_started","ts":...,"fp":...,"benchmarks":N,"rows_per_benchmark":R}
//	{"t":"run_started","ts":...,"fp":...,"scope":S,"rows":R}
//	{"t":"row_finished","ts":...,"fp":...,"scope":S,"row":I,"value":V,"ms":L}
//	{"t":"checkpoint_hit","ts":...,"fp":...,"scope":S,"row":I,"value":V}
//	{"t":"row_failed","ts":...,"fp":...,"scope":S,"row":I,"err":E}
//	{"t":"run_finished","ts":...,"fp":...,"scope":S,"ms":L}
//	{"t":"summary","ts":...,"fp":...,"summary":{...obs.Summary...}}
//
// All methods are safe for concurrent use. Write errors are sticky:
// the first one is remembered and returned by Close, and later events
// are dropped (observability must never fail the experiment itself).
type JSONL struct {
	Nop // per-attempt events default to no-ops

	mu     sync.Mutex
	w      *bufio.Writer
	closer io.Closer
	fp     string
	err    error
	now    func() time.Time // injectable clock for tests
}

// NewJSONL wraps an arbitrary writer (closed by Close when it
// implements io.Closer).
func NewJSONL(w io.Writer) *JSONL {
	j := &JSONL{w: bufio.NewWriter(w), now: time.Now}
	if c, ok := w.(io.Closer); ok {
		j.closer = c
	}
	return j
}

// OpenJSONL creates (truncating) the event file at path.
func OpenJSONL(path string) (*JSONL, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: open metrics file: %w", err)
	}
	return NewJSONL(f), nil
}

// emit marshals one event line under the lock, stamping ts and fp.
func (j *JSONL) emit(event map[string]any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil || j.w == nil {
		return
	}
	event["ts"] = j.now().UTC().Format(time.RFC3339Nano)
	if j.fp != "" {
		event["fp"] = j.fp
	}
	line, err := json.Marshal(event)
	if err != nil {
		j.err = err
		return
	}
	if _, err := j.w.Write(append(line, '\n')); err != nil {
		j.err = err
	}
}

// SuiteStarted implements Recorder; it also (re)keys subsequent
// events with the suite's fingerprint.
func (j *JSONL) SuiteStarted(fingerprint string, benchmarks, rowsPerBenchmark int) {
	j.mu.Lock()
	j.fp = fingerprint
	j.mu.Unlock()
	j.emit(map[string]any{
		"t":                  "suite_started",
		"benchmarks":         benchmarks,
		"rows_per_benchmark": rowsPerBenchmark,
	})
}

// RunStarted implements Recorder.
func (j *JSONL) RunStarted(scope string, rows int) {
	j.emit(map[string]any{"t": "run_started", "scope": scope, "rows": rows})
}

// RowFinished implements Recorder. Checkpoint restores are journaled
// as checkpoint_hit events, simulated rows as row_finished.
func (j *JSONL) RowFinished(scope string, row int, value float64, latency time.Duration, _ int, fromCheckpoint bool) {
	if fromCheckpoint {
		j.emit(map[string]any{"t": "checkpoint_hit", "scope": scope, "row": row, "value": value})
		return
	}
	j.emit(map[string]any{
		"t": "row_finished", "scope": scope, "row": row, "value": value,
		"ms": durMS(latency),
	})
}

// RowFailed implements Recorder.
func (j *JSONL) RowFailed(scope string, row, _ int, err error) {
	j.emit(map[string]any{
		"t": "row_failed", "scope": scope, "row": row, "err": errString(err),
	})
}

// RunFinished implements Recorder.
func (j *JSONL) RunFinished(scope string, elapsed time.Duration) {
	j.emit(map[string]any{"t": "run_finished", "scope": scope, "ms": durMS(elapsed)})
}

// WriteSummary journals the end-of-run summary event; the CLI session
// calls it once before Close.
func (j *JSONL) WriteSummary(s Summary) {
	j.emit(map[string]any{"t": "summary", "summary": s})
}

// Close flushes the journal and returns the first write error, if any.
func (j *JSONL) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.w == nil {
		return j.err
	}
	if err := j.w.Flush(); err != nil && j.err == nil {
		j.err = err
	}
	j.w = nil
	if j.closer != nil {
		if err := j.closer.Close(); err != nil && j.err == nil {
			j.err = err
		}
		j.closer = nil
	}
	return j.err
}

// durMS renders a duration as fractional milliseconds for the event
// stream (compact and human-scannable, unlike raw nanoseconds).
func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
