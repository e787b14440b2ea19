package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"
)

// Metrics is the aggregate Recorder: it folds the runner's event
// stream into atomic counters, gauges, and latency histograms, and
// renders the whole campaign as a Summary at the end. One Metrics
// value typically spans a whole CLI invocation, including chained
// suites (pbenhance's base and enhanced phases accumulate into the
// same totals).
type Metrics struct {
	// Row accounting. RowsSimulated counts rows actually evaluated,
	// RowsResumed rows restored from a checkpoint, RowsFailed rows
	// that failed — the resumed-vs-simulated split is the engine's
	// cost ledger (the paper's 2X-run budget is paid
	// only for simulated rows).
	RowsSimulated Counter
	RowsResumed   Counter
	RowsFailed    Counter

	// Panics counts the rows whose one attempt crashed and was
	// recovered (they are also counted in RowsFailed).
	Panics Counter

	// Workers tracks currently and peak concurrently busy workers.
	Workers Gauge

	// Distributed-execution accounting (see DistRecorder): lease
	// claims (steals included), steals of expired leases, leases lost
	// to a stealer, durable shard-ledger commits, and shard files
	// quarantined by merge. All zero for single-process campaigns.
	LeasesClaimed     Counter
	LeasesStolen      Counter
	LeasesLost        Counter
	Commits           Counter
	ShardsQuarantined Counter

	// Latency distributions: simulated rows (a row's one attempt), and
	// time rows spent queued before their attempt.
	RowLatency Histogram
	Queued     Histogram

	expectedRows atomic.Int64
	suiteSeen    atomic.Bool
	startNano    atomic.Int64 // wall start, set by the first event

	mu          sync.Mutex
	fingerprint string
	scopes      map[string]*ScopeMetrics
	order       []string
}

// ScopeMetrics is the per-benchmark (per runner scope) slice of the
// campaign totals.
type ScopeMetrics struct {
	Scope     string
	Rows      int64
	Simulated int64
	Resumed   int64
	Failed    int64
	Wall      time.Duration
}

// NewMetrics returns an empty Metrics ready to be used as a Recorder.
func NewMetrics() *Metrics { return &Metrics{scopes: make(map[string]*ScopeMetrics)} }

// markStart records the campaign wall-clock start on the first event.
func (m *Metrics) markStart() {
	if m.startNano.Load() == 0 {
		m.startNano.CompareAndSwap(0, time.Now().UnixNano())
	}
}

// scope returns (creating if needed) the per-scope accumulator.
func (m *Metrics) scope(name string) *ScopeMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.scopes[name]
	if !ok {
		s = &ScopeMetrics{Scope: name}
		m.scopes[name] = s
		m.order = append(m.order, name)
	}
	return s
}

// SuiteStarted implements Recorder.
func (m *Metrics) SuiteStarted(fingerprint string, benchmarks, rowsPerBenchmark int) {
	m.markStart()
	m.suiteSeen.Store(true)
	m.expectedRows.Add(int64(benchmarks) * int64(rowsPerBenchmark))
	m.mu.Lock()
	m.fingerprint = fingerprint
	m.mu.Unlock()
}

// RunStarted implements Recorder.
func (m *Metrics) RunStarted(scope string, rows int) {
	m.markStart()
	// Without a suite announcement (direct runner use) the expected
	// total grows run by run so progress output stays meaningful.
	if !m.suiteSeen.Load() {
		m.expectedRows.Add(int64(rows))
	}
	m.scope(scope)
}

// QueueWait implements Recorder.
func (m *Metrics) QueueWait(_ string, _ int, wait time.Duration) { m.Queued.Observe(wait) }

// WorkerActive implements Recorder.
func (m *Metrics) WorkerActive(delta int) { m.Workers.Add(int64(delta)) }

// AttemptDone implements Recorder.
func (m *Metrics) AttemptDone(_ string, _, _ int, _ time.Duration, outcome Outcome, _ error) {
	if outcome == Panicked {
		m.Panics.Inc()
	}
}

// RowFinished implements Recorder.
func (m *Metrics) RowFinished(scope string, _ int, _ float64, latency time.Duration, _ int, fromCheckpoint bool) {
	s := m.scope(scope)
	m.mu.Lock()
	s.Rows++
	if fromCheckpoint {
		s.Resumed++
	} else {
		s.Simulated++
	}
	m.mu.Unlock()
	if fromCheckpoint {
		m.RowsResumed.Inc()
		return
	}
	m.RowsSimulated.Inc()
	m.RowLatency.Observe(latency)
}

// RowFailed implements Recorder.
func (m *Metrics) RowFailed(scope string, _, _ int, _ error) {
	m.RowsFailed.Inc()
	s := m.scope(scope)
	m.mu.Lock()
	s.Failed++
	m.mu.Unlock()
}

// RunFinished implements Recorder.
func (m *Metrics) RunFinished(scope string, elapsed time.Duration) {
	s := m.scope(scope)
	m.mu.Lock()
	s.Wall += elapsed
	m.mu.Unlock()
}

// RowsDone returns simulated + resumed rows so far.
func (m *Metrics) RowsDone() int64 { return m.RowsSimulated.Value() + m.RowsResumed.Value() }

// ExpectedRows returns the announced campaign size (0 when unknown).
func (m *Metrics) ExpectedRows() int64 { return m.expectedRows.Load() }

// Elapsed returns the wall time since the first recorded event.
func (m *Metrics) Elapsed() time.Duration {
	start := m.startNano.Load()
	if start == 0 {
		return 0
	}
	return time.Duration(time.Now().UnixNano() - start)
}

// Fingerprint returns the most recent suite fingerprint seen.
func (m *Metrics) Fingerprint() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fingerprint
}

// Summary freezes the campaign totals into a serializable report.
type Summary struct {
	Tool        string        `json:"tool,omitempty"`
	Fingerprint string        `json:"fp,omitempty"`
	Wall        time.Duration `json:"wall_ns"`

	RowsExpected  int64 `json:"rows_expected"`
	RowsSimulated int64 `json:"rows_simulated"`
	RowsResumed   int64 `json:"rows_resumed"`
	RowsFailed    int64 `json:"rows_failed"`

	Panics int64 `json:"panics"`

	LeasesClaimed     int64 `json:"leases_claimed,omitempty"`
	LeasesStolen      int64 `json:"leases_stolen,omitempty"`
	LeasesLost        int64 `json:"leases_lost,omitempty"`
	Commits           int64 `json:"commits,omitempty"`
	ShardsQuarantined int64 `json:"shards_quarantined,omitempty"`

	RowsPerSec float64 `json:"rows_per_sec"`

	RowLatencyP50 time.Duration `json:"row_latency_p50_ns"`
	RowLatencyP95 time.Duration `json:"row_latency_p95_ns"`
	RowLatencyMax time.Duration `json:"row_latency_max_ns"`
	QueueWaitP95  time.Duration `json:"queue_wait_p95_ns"`

	WorkersPeak int64 `json:"workers_peak"`

	Benchmarks []ScopeMetrics `json:"benchmarks,omitempty"`
}

// Summary computes the report at this instant. tool names the CLI for
// the header (may be empty).
func (m *Metrics) Summary(tool string) Summary {
	wall := m.Elapsed()
	s := Summary{
		Tool:              tool,
		Fingerprint:       m.Fingerprint(),
		Wall:              wall,
		RowsExpected:      m.ExpectedRows(),
		RowsSimulated:     m.RowsSimulated.Value(),
		RowsResumed:       m.RowsResumed.Value(),
		RowsFailed:        m.RowsFailed.Value(),
		Panics:            m.Panics.Value(),
		LeasesClaimed:     m.LeasesClaimed.Value(),
		LeasesStolen:      m.LeasesStolen.Value(),
		LeasesLost:        m.LeasesLost.Value(),
		Commits:           m.Commits.Value(),
		ShardsQuarantined: m.ShardsQuarantined.Value(),
		RowLatencyP50:     m.RowLatency.Quantile(0.50),
		RowLatencyP95:     m.RowLatency.Quantile(0.95),
		RowLatencyMax:     m.RowLatency.Max(),
		QueueWaitP95:      m.Queued.Quantile(0.95),
		WorkersPeak:       m.Workers.Peak(),
	}
	if wall > 0 {
		s.RowsPerSec = float64(s.RowsSimulated) / wall.Seconds()
	}
	m.mu.Lock()
	for _, name := range m.order {
		s.Benchmarks = append(s.Benchmarks, *m.scopes[name])
	}
	m.mu.Unlock()
	sort.SliceStable(s.Benchmarks, func(i, j int) bool { return s.Benchmarks[i].Scope < s.Benchmarks[j].Scope })
	return s
}

// fmtDur renders a duration at a resolution matched to its magnitude.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return d.Round(time.Second).String()
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	case d >= time.Microsecond:
		return d.Round(10 * time.Nanosecond).String()
	}
	return d.String()
}

// Table renders the summary as the human-readable end-of-run block
// the CLIs print on stderr.
func (s Summary) Table() string {
	var b strings.Builder
	title := "run summary"
	if s.Tool != "" {
		title = s.Tool + " run summary"
	}
	fmt.Fprintf(&b, "── %s ", title)
	b.WriteString(strings.Repeat("─", maxInt(1, 58-len(title))))
	b.WriteByte('\n')
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	if s.Fingerprint != "" {
		fmt.Fprintf(w, "fingerprint\t%s\n", s.Fingerprint)
	}
	fmt.Fprintf(w, "wall time\t%s\n", fmtDur(s.Wall))
	done := s.RowsSimulated + s.RowsResumed
	rows := fmt.Sprintf("%d done = %d simulated + %d resumed", done, s.RowsSimulated, s.RowsResumed)
	if s.RowsFailed > 0 {
		rows += fmt.Sprintf(" (%d failed)", s.RowsFailed)
	}
	if s.RowsExpected > 0 {
		rows += fmt.Sprintf(" of %d expected", s.RowsExpected)
	}
	fmt.Fprintf(w, "rows\t%s\n", rows)
	fmt.Fprintf(w, "throughput\t%.1f simulated rows/s\n", s.RowsPerSec)
	fmt.Fprintf(w, "row latency\tp50 %s\tp95 %s\tmax %s\n",
		fmtDur(s.RowLatencyP50), fmtDur(s.RowLatencyP95), fmtDur(s.RowLatencyMax))
	fmt.Fprintf(w, "panics\t%d\n", s.Panics)
	fmt.Fprintf(w, "queue wait\tp95 %s\n", fmtDur(s.QueueWaitP95))
	fmt.Fprintf(w, "workers\tpeak %d concurrent\n", s.WorkersPeak)
	if s.LeasesClaimed > 0 || s.Commits > 0 || s.ShardsQuarantined > 0 {
		fmt.Fprintf(w, "dist\t%d leases (%d stolen, %d lost), %d commits, %d quarantined shards\n",
			s.LeasesClaimed, s.LeasesStolen, s.LeasesLost, s.Commits, s.ShardsQuarantined)
	}
	if len(s.Benchmarks) > 0 {
		fmt.Fprintf(w, "per benchmark\twall\trows\tsimulated\tresumed\tfailed\n")
		for _, sc := range s.Benchmarks {
			fmt.Fprintf(w, "  %s\t%s\t%d\t%d\t%d\t%d\n",
				sc.Scope, fmtDur(sc.Wall), sc.Rows, sc.Simulated, sc.Resumed, sc.Failed)
		}
	}
	w.Flush() //pbcheck:ignore errdiscard tabwriter flushing into an in-memory strings.Builder cannot fail
	return b.String()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Snapshot exposes the live totals as a plain map, the shape the
// debug server publishes under expvar.
func (m *Metrics) Snapshot() map[string]any {
	return map[string]any{
		"rows_simulated":     m.RowsSimulated.Value(),
		"rows_resumed":       m.RowsResumed.Value(),
		"rows_failed":        m.RowsFailed.Value(),
		"rows_expected":      m.ExpectedRows(),
		"panics":             m.Panics.Value(),
		"leases_claimed":     m.LeasesClaimed.Value(),
		"leases_stolen":      m.LeasesStolen.Value(),
		"leases_lost":        m.LeasesLost.Value(),
		"commits":            m.Commits.Value(),
		"shards_quarantined": m.ShardsQuarantined.Value(),
		"workers_active":     m.Workers.Value(),
		"workers_peak":       m.Workers.Peak(),
		"row_latency_p50_ms": float64(m.RowLatency.Quantile(0.50)) / 1e6,
		"row_latency_p95_ms": float64(m.RowLatency.Quantile(0.95)) / 1e6,
		"row_latency_max_ms": float64(m.RowLatency.Max()) / 1e6,
		"elapsed_ms":         float64(m.Elapsed()) / 1e6,
	}
}
