package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentPrimitives hammers every primitive from many
// goroutines and asserts exact totals; run under -race this is the
// memory-safety gate for the whole package.
func TestConcurrentPrimitives(t *testing.T) {
	const (
		goroutines = 16
		perG       = 5000
	)
	var (
		c  Counter
		g  Gauge
		h  Histogram
		wg sync.WaitGroup
	)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(time.Duration(i%1000) * time.Microsecond)
				g.Add(-1)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge settled at %d, want 0", got)
	}
	if p := g.Peak(); p < 1 || p > goroutines {
		t.Errorf("gauge peak = %d, want in [1, %d]", p, goroutines)
	}
	if got := h.Count(); got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
	if got, want := h.Max(), 999*time.Microsecond; got != want {
		t.Errorf("histogram max = %v, want %v", got, want)
	}
	// Exact sum: each goroutine contributes sum(0..999µs) * 5 rounds.
	var wantSum time.Duration
	for i := 0; i < perG; i++ {
		wantSum += time.Duration(i%1000) * time.Microsecond
	}
	wantSum *= goroutines
	if got := time.Duration(h.sum.Load()); got != wantSum {
		t.Errorf("histogram sum = %v, want %v", got, wantSum)
	}
}

// TestConcurrentMetricsRecorder drives the full Recorder surface of
// Metrics from many goroutines and asserts the aggregates are exact.
func TestConcurrentMetricsRecorder(t *testing.T) {
	const (
		goroutines = 8
		rows       = 500
	)
	m := NewMetrics()
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			scope := []string{"a", "b"}[w%2]
			for i := 0; i < rows; i++ {
				m.WorkerActive(1)
				m.QueueWait(scope, i, time.Millisecond)
				switch i % 3 {
				case 0:
					m.AttemptDone(scope, i, 0, time.Millisecond, OK, nil)
					m.RowFinished(scope, i, 1.0, 2*time.Millisecond, 1, false)
				case 1:
					m.RowFinished(scope, i, 1.0, 0, 0, true)
				case 2:
					m.AttemptDone(scope, i, 0, time.Millisecond, Panicked, errSentinel)
					m.RowFailed(scope, i, 1, errSentinel)
				}
				m.WorkerActive(-1)
			}
		}(w)
	}
	wg.Wait()
	var wantSim, wantRes, wantFail int64
	for i := 0; i < rows; i++ {
		switch i % 3 {
		case 0:
			wantSim++
		case 1:
			wantRes++
		case 2:
			wantFail++
		}
	}
	wantSim *= goroutines
	wantRes *= goroutines
	wantFail *= goroutines
	if got := m.RowsSimulated.Value(); got != wantSim {
		t.Errorf("RowsSimulated = %d, want %d", got, wantSim)
	}
	if got := m.RowsResumed.Value(); got != wantRes {
		t.Errorf("RowsResumed = %d, want %d", got, wantRes)
	}
	if got := m.RowsFailed.Value(); got != wantFail {
		t.Errorf("RowsFailed = %d, want %d", got, wantFail)
	}
	if got := m.Panics.Value(); got != wantFail {
		t.Errorf("Panics = %d, want %d", got, wantFail)
	}
	s := m.Summary("test")
	if got := s.RowsSimulated + s.RowsResumed; got != wantSim+wantRes {
		t.Errorf("summary rows done = %d, want %d", got, wantSim+wantRes)
	}
	if len(s.Benchmarks) != 2 {
		t.Fatalf("summary scopes = %d, want 2", len(s.Benchmarks))
	}
	var scopeRows int64
	for _, sc := range s.Benchmarks {
		scopeRows += sc.Rows + sc.Failed
	}
	if want := int64(goroutines * rows); scopeRows != want {
		t.Errorf("per-scope rows+failed = %d, want %d", scopeRows, want)
	}
}

var errSentinel = errSentinelType{}

type errSentinelType struct{}

func (errSentinelType) Error() string { return "sentinel" }

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{-time.Second, 0}, // Observe clamps, bucketIndex handles <= 1µs
		{time.Microsecond, 0},
		{time.Microsecond + 1, 1},
		{2 * time.Microsecond, 1},
		{2*time.Microsecond + 1, 2},
		{4 * time.Microsecond, 2},
		{1024 * time.Microsecond, 10},
		{time.Hour, histBuckets},
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	var empty Histogram
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	p50 := h.Quantile(0.50)
	if p50 < 20*time.Millisecond || p50 > 80*time.Millisecond {
		t.Errorf("p50 = %v, want around 50ms (bucketed estimate)", p50)
	}
	if got := h.Quantile(1.0); got > h.Max() {
		t.Errorf("p100 = %v exceeds max %v", got, h.Max())
	}
	if got, want := h.Max(), 100*time.Millisecond; got != want {
		t.Errorf("max = %v, want %v", got, want)
	}
	if got := h.Quantile(0.95); got > h.Max() || got < p50 {
		t.Errorf("p95 = %v out of order (p50 %v, max %v)", got, p50, h.Max())
	}
	if mean := h.Mean(); mean < 40*time.Millisecond || mean > 60*time.Millisecond {
		t.Errorf("mean = %v, want ~50.5ms", mean)
	}
}

func TestGaugePeak(t *testing.T) {
	var g Gauge
	g.Add(3)
	g.Add(-1)
	g.Add(5)
	if got := g.Value(); got != 7 {
		t.Errorf("value = %d, want 7", got)
	}
	if got := g.Peak(); got != 7 {
		t.Errorf("peak = %d, want 7", got)
	}
	g.Add(-7)
	if got := g.Peak(); got != 7 {
		t.Errorf("peak after drain = %d, want 7", got)
	}
}

func TestOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{
		OK: "ok", Errored: "error", Panicked: "panic", Outcome(99): "unknown",
	} {
		if got := o.String(); got != want {
			t.Errorf("Outcome(%d).String() = %q, want %q", o, got, want)
		}
	}
}

func TestMultiFanOut(t *testing.T) {
	a, b := NewMetrics(), NewMetrics()
	r := Multi(nil, a, nil, b)
	r.RunStarted("s", 4)
	r.RowFinished("s", 0, 1, time.Millisecond, 1, false)
	for i, m := range []*Metrics{a, b} {
		if got := m.RowsSimulated.Value(); got != 1 {
			t.Errorf("recorder %d rows = %d, want 1", i, got)
		}
	}
	if _, ok := Multi(nil).(Nop); !ok {
		t.Error("Multi() with no live recorders should collapse to Nop")
	}
	if got := Multi(a); got != Recorder(a) {
		t.Error("Multi(a) should collapse to a itself")
	}
}

// TestSummaryTable pins the load-bearing lines of the human summary.
func TestSummaryTable(t *testing.T) {
	m := NewMetrics()
	m.SuiteStarted("fp-123", 2, 10)
	m.RunStarted("base/gzip", 10)
	for i := 0; i < 7; i++ {
		m.RowFinished("base/gzip", i, 1, time.Millisecond, 1, false)
	}
	for i := 7; i < 10; i++ {
		m.RowFinished("base/gzip", i, 1, 0, 0, true)
	}
	m.RunFinished("base/gzip", 50*time.Millisecond)
	tbl := m.Summary("pbrank").Table()
	for _, want := range []string{
		"pbrank run summary",
		"fp-123",
		"7 simulated + 3 resumed",
		"of 20 expected",
		"base/gzip",
	} {
		if !strings.Contains(tbl, want) {
			t.Errorf("summary table missing %q:\n%s", want, tbl)
		}
	}
}
