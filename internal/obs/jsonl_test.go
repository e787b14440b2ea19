package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// decodeLines parses every JSONL line back into generic maps.
func decodeLines(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var events []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		events = append(events, m)
	}
	return events
}

func TestJSONLEventStream(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.now = func() time.Time { return time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC) }

	j.SuiteStarted("fp-abc", 2, 8)
	j.RunStarted("base/gzip", 8)
	j.RowFinished("base/gzip", 0, 123.5, 2*time.Millisecond, 1, false)
	j.RowFinished("base/gzip", 1, 456.0, 0, 0, true) // checkpoint restore
	j.RowFailed("base/gzip", 2, 1, errors.New("boom"))
	j.RunFinished("base/gzip", 100*time.Millisecond)
	j.WriteSummary(Summary{Tool: "test", RowsSimulated: 1})
	// Per-attempt firehose must be ignored by the sink.
	j.AttemptDone("base/gzip", 0, 0, time.Millisecond, OK, nil)
	j.QueueWait("base/gzip", 0, time.Millisecond)
	j.WorkerActive(1)
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	events := decodeLines(t, buf.Bytes())
	wantTypes := []string{
		"suite_started", "run_started", "row_finished", "checkpoint_hit",
		"row_failed", "run_finished", "summary",
	}
	if len(events) != len(wantTypes) {
		t.Fatalf("got %d events, want %d:\n%s", len(events), len(wantTypes), buf.String())
	}
	for i, want := range wantTypes {
		if got := events[i]["t"]; got != want {
			t.Errorf("event %d type = %v, want %q", i, got, want)
		}
		if got := events[i]["ts"]; got != "2026-08-05T12:00:00Z" {
			t.Errorf("event %d ts = %v", i, got)
		}
		// Every event after the suite announcement carries the
		// checkpoint-compatible fingerprint key.
		if got := events[i]["fp"]; got != "fp-abc" {
			t.Errorf("event %d fp = %v, want fp-abc", i, got)
		}
	}
	if got, ok := events[2]["attempts"]; ok {
		t.Errorf("row_finished carries attempts = %v; every row is attempted once", got)
	}
	if got := events[3]["value"]; got != 456.0 {
		t.Errorf("checkpoint_hit value = %v, want 456", got)
	}
	if got := events[4]["err"]; got != "boom" {
		t.Errorf("row_failed err = %v, want boom", got)
	}
	sum, ok := events[6]["summary"].(map[string]any)
	if !ok {
		t.Fatalf("summary payload missing: %v", events[6])
	}
	if got := sum["rows_simulated"]; got != float64(1) {
		t.Errorf("summary rows_simulated = %v, want 1", got)
	}
}

func TestOpenJSONLRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.jsonl")
	j, err := OpenJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	j.SuiteStarted("fp", 1, 2)
	j.RowFinished("s", 0, 1, time.Millisecond, 1, false)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(decodeLines(t, data)); got != 2 {
		t.Errorf("file has %d events, want 2", got)
	}
	// Events after Close are dropped, not crashed on.
	j.RunStarted("late", 1)
	if err := j.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// errWriter fails after n writes; the sink must remember the first
// error and keep the experiment alive.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n--
	return len(p), nil
}

func TestJSONLStickyError(t *testing.T) {
	j := NewJSONL(&errWriter{n: 0})
	for i := 0; i < 4096; i++ { // enough to overflow the bufio buffer
		j.RunStarted("s", 1)
	}
	if err := j.Close(); err == nil {
		t.Fatal("expected sticky write error from Close")
	}
}
