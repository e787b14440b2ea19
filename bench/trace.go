package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"pbsim/internal/obs"
)

// span is one timed interval of the traced rep. Times are nanoseconds
// since the tracer started; Parent indexes the tracer's span list (-1
// for a root); Row names the design row ("gzip/8") the span worked on.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Row    string `json:"row,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps the spans of one traced rep in memory. A nil *tracer is
// the untraced rep: every method is a no-op that reads no clock.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, row string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Row: row})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
}

// record adds a span whose interval was observed elsewhere (a runner
// attempt reports its latency when it ends).
func (t *tracer) record(name string, parent int, row string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
		Parent: parent, Row: row,
	})
	return len(t.spans) - 1
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that the union of its children's intervals covers.
// Overlapping children (two workers under one campaign) count once.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach int64
		reach = s.Start
		for _, v := range ivs {
			if v.lo > reach {
				reach = v.lo
			}
			if v.hi > reach {
				covered += v.hi - reach
				reach = v.hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerTotal is the count, total duration and total self time of a set
// of spans.
type layerTotal struct {
	Count int   `json:"count"`
	Dur   int64 `json:"dur_ns"`
	Self  int64 `json:"self_ns"`
}

func (t *layerTotal) add(dur, self int64) {
	t.Count++
	t.Dur += dur
	t.Self += self
}

type spanIndex struct {
	spans []span
	self  []int64
}

func indexSpans(spans []span) spanIndex { return spanIndex{spans: spans, self: selfTimes(spans)} }

// total aggregates the spans named name whose parent is named parent
// (any parent when parent is "").
func (x spanIndex) total(name, parent string) layerTotal {
	var t layerTotal
	for i, s := range x.spans {
		if s.Name != name {
			continue
		}
		if parent != "" && (s.Parent < 0 || x.spans[s.Parent].Name != parent) {
			continue
		}
		t.add(s.dur(), x.self[i])
	}
	return t
}

// byName is the per-layer self-time table written beside the spans.
func (x spanIndex) byName() map[string]layerTotal {
	out := make(map[string]layerTotal)
	for i, s := range x.spans {
		t := out[s.Name]
		t.add(s.dur(), x.self[i])
		out[s.Name] = t
	}
	return out
}

// writeTrace writes the spans and the per-name self-time table to
// <dir>/trace-<workload>.json.
func writeTrace(dir, workload string, x spanIndex) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	data, err := json.MarshalIndent(struct {
		Workload string                `json:"workload"`
		Layers   map[string]layerTotal `json:"layers"`
		Spans    []span                `json:"spans"`
	}{workload, x.byName(), x.spans}, "", " ")
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), append(data, '\n'), 0o644)
}

// recorder is the traced rep's obs.Recorder and obs.DistRecorder. It
// keeps every attempt latency for the runner metrics and turns runner
// attempts (or, in a distributed campaign, lease-to-commit units) into
// spans under the campaign span.
type recorder struct {
	obs.Nop
	tr     *tracer
	parent int
	// rowSpans makes each runner attempt a span. A distributed worker
	// runs every unit as its own one-row evaluation, so there the
	// runner's row index is always 0 and the dist unit spans carry the
	// rows instead.
	rowSpans bool

	mu         sync.Mutex
	latencies  []time.Duration
	retries    int
	rowsFailed int

	claimedAt  map[string]time.Time
	workerSpan map[string]int
	lastCommit map[string]time.Time
	claimed    int
	stolen     int
	lost       int
	commits    int
}

// recorderFor returns the recorder a traced rep of w attaches under
// the work span, or nil for lint-sweep, which runs no campaign.
func recorderFor(w benchWorkload, tr *tracer, work int) *recorder {
	if w.Kind == kindLint {
		return nil
	}
	return &recorder{
		tr: tr, parent: work, rowSpans: w.Kind == kindSuite,
		claimedAt:  make(map[string]time.Time),
		workerSpan: make(map[string]int),
		lastCommit: make(map[string]time.Time),
	}
}

func rowID(scope string, row int) string { return fmt.Sprintf("%s/%d", scope, row) }

// AttemptDone implements obs.Recorder.
func (r *recorder) AttemptDone(scope string, row, _ int, latency time.Duration, _ obs.Outcome, _ error) {
	now := time.Now()
	if r.rowSpans {
		r.tr.record("runner.attempt", r.parent, rowID(scope, row), now.Add(-latency), now)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.latencies = append(r.latencies, latency)
}

// RowRetried implements obs.Recorder.
func (r *recorder) RowRetried(string, int, int, time.Duration, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.retries++
}

// RowFailed implements obs.Recorder.
func (r *recorder) RowFailed(string, int, int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rowsFailed++
}

// setWorkerSpan names the span that a worker's unit spans hang under.
func (r *recorder) setWorkerSpan(worker string, i int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.workerSpan[worker] = i
}

// LeaseClaimed implements obs.DistRecorder.
func (r *recorder) LeaseClaimed(scope string, row int, stolen bool) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claimed++
	if stolen {
		r.stolen++
	}
	r.claimedAt[rowID(scope, row)] = now
}

// LeaseLost implements obs.DistRecorder.
func (r *recorder) LeaseLost(string, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lost++
}

// CommitAppended implements obs.DistRecorder: the unit's span runs from
// its lease claim to this commit, under the committing worker's span.
func (r *recorder) CommitAppended(worker, scope string, row int) {
	now := time.Now()
	id := rowID(scope, row)
	r.mu.Lock()
	r.commits++
	r.lastCommit[worker] = now
	start, ok := r.claimedAt[id]
	parent, known := r.workerSpan[worker]
	r.mu.Unlock()
	if !ok {
		start = now
	}
	if !known {
		parent = r.parent
	}
	r.tr.record("dist.unit", parent, id, start, now)
}

// ShardQuarantined implements obs.DistRecorder; a benchmark campaign
// never tears a shard, and a quarantine would surface as a failed merge.
func (r *recorder) ShardQuarantined(string, string) {}

// recSummary copies the recorder's observations once the campaign is
// over.
type recSummary struct {
	latencies                      []time.Duration
	retries, rowsFailed            int
	claimed, stolen, lost, commits int
	// tailIdleS is the longest a dist worker ran past its own last
	// commit before RunWorker returned.
	tailIdleS float64
}

func (r *recorder) summary(x spanIndex) recSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := recSummary{
		latencies: append([]time.Duration(nil), r.latencies...),
		retries:   r.retries, rowsFailed: r.rowsFailed,
		claimed: r.claimed, stolen: r.stolen, lost: r.lost, commits: r.commits,
	}
	for id, i := range r.workerSpan {
		if last, ok := r.lastCommit[id]; ok {
			idle := float64(x.spans[i].End-last.Sub(r.tr.t0).Nanoseconds()) / 1e9
			s.tailIdleS = max(s.tailIdleS, idle)
		}
	}
	return s
}
