package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestExit(t *testing.T) {
	wrapped := fmt.Errorf("campaign: %w", Usagef("unknown benchmark %q", "nope"))
	cases := []struct {
		name     string
		err      error
		wantCode int
		wantMsg  string // "" = nothing printed
	}{
		{"nil is success", nil, 0, ""},
		{"plain error", fmt.Errorf("simulation blew up"), 1, "pbrank: error: simulation blew up\n"},
		{"usage error", Usagef("unknown config %q", "fast"), 2, "pbrank: error: unknown config \"fast\"\n"},
		{"wrapped usage error keeps its code", wrapped, 2, "pbrank: error: campaign: unknown benchmark \"nope\"\n"},
		{"explicit exit code", &ExitError{Code: 3, Err: fmt.Errorf("three")}, 3, "pbrank: error: three\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if code := Exit(&buf, "pbrank", tc.err); code != tc.wantCode {
				t.Errorf("code = %d, want %d", code, tc.wantCode)
			}
			if got := buf.String(); got != tc.wantMsg {
				t.Errorf("stderr = %q, want %q", got, tc.wantMsg)
			}
		})
	}
}

func TestDistEvents(t *testing.T) {
	// A Metrics recorder counts dist events; a Multi fans them out to
	// every member; Nop and the inert session's recorder absorb them.
	m := NewMetrics()
	var sink bytes.Buffer
	j := NewJSONL(&sink)
	fan := Multi(m, j, Nop{})
	fan.LeaseClaimed("gzip", 3, false)
	fan.LeaseClaimed("gzip", 4, true)
	fan.LeaseLost("gzip", 4)
	fan.CommitAppended("w1", "gzip", 3)
	fan.ShardQuarantined("shards/w9.jsonl", "mid-file corruption")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := m.LeasesClaimed.Value(); got != 2 {
		t.Errorf("LeasesClaimed = %d, want 2", got)
	}
	if got := m.LeasesStolen.Value(); got != 1 {
		t.Errorf("LeasesStolen = %d, want 1", got)
	}
	if got := m.LeasesLost.Value(); got != 1 {
		t.Errorf("LeasesLost = %d, want 1", got)
	}
	if m.Commits.Value() != 1 || m.ShardsQuarantined.Value() != 1 {
		t.Errorf("commits/quarantined = %d/%d, want 1/1", m.Commits.Value(), m.ShardsQuarantined.Value())
	}
	for _, want := range []string{"lease_claimed", "lease_lost", "commit", "shard_quarantined"} {
		if !strings.Contains(sink.String(), fmt.Sprintf("%q", want)) {
			t.Errorf("JSONL journal missing %s event:\n%s", want, sink.String())
		}
	}
	// The summary table surfaces the dist line only when events exist.
	tbl := m.Summary("t").Table()
	if !strings.Contains(tbl, "2 leases (1 stolen, 1 lost), 1 commits, 1 quarantined shards") {
		t.Errorf("summary table missing dist line:\n%s", tbl)
	}
	if plain := NewMetrics().Summary("t").Table(); strings.Contains(plain, "dist") {
		t.Errorf("dist line printed for a campaign with no dist events:\n%s", plain)
	}
	// Nop and the inert session's recorder take every dist event.
	inert, err := (&CLIFlags{Tool: "t"}).Start(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Recorder{Nop{}, inert.Recorder()} {
		r.LeaseClaimed("s", 0, false)
		r.LeaseLost("s", 0)
		r.CommitAppended("w", "s", 0)
		r.ShardQuarantined("p", "r")
	}
}

func TestRegisterCLIFlags(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := RegisterCLIFlags(fs, "tool")
	if err := fs.Parse([]string{"-metrics", "m.jsonl", "-progress", "-debug-addr", "localhost:0"}); err != nil {
		t.Fatal(err)
	}
	if c.MetricsPath != "m.jsonl" || !c.Progress || c.DebugAddr != "localhost:0" {
		t.Errorf("flags not bound: %+v", c)
	}
}

func TestInertSession(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c := RegisterCLIFlags(fs, "tool")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sess, err := c.Start(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rec := sess.Recorder(); rec != (Nop{}) {
		t.Errorf("inert session recorder = %#v, want Nop", rec)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("inert session wrote output: %q", buf.String())
	}
}

func TestSessionMetricsAndSummary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.jsonl")
	c := &CLIFlags{Tool: "tool", MetricsPath: path}
	var buf bytes.Buffer
	sess, err := c.Start(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rec := sess.Recorder()
	if rec == (Nop{}) {
		t.Fatal("enabled session returned Nop")
	}
	rec.SuiteStarted("fp", 1, 3)
	rec.RunStarted("s", 3)
	rec.RowFinished("s", 0, 1, time.Millisecond, 1, false)
	rec.RowFinished("s", 1, 1, 0, 0, true)
	rec.RunFinished("s", 10*time.Millisecond)
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1 simulated + 1 resumed") {
		t.Errorf("summary table missing resumed/simulated split:\n%s", buf.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"t":"summary"`) {
		t.Errorf("metrics file missing summary event:\n%s", data)
	}
	// Close is idempotent.
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionProgressLines(t *testing.T) {
	c := &CLIFlags{Tool: "tool", Progress: true, ProgressInterval: 5 * time.Millisecond}
	pr, pw := io.Pipe()
	defer pr.Close()
	lines := make(chan string, 64)
	go func() {
		buf := make([]byte, 4096)
		for {
			n, err := pr.Read(buf)
			if n > 0 {
				lines <- string(buf[:n])
			}
			if err != nil {
				close(lines)
				return
			}
		}
	}()
	sess, err := c.Start(pw)
	if err != nil {
		t.Fatal(err)
	}
	rec := sess.Recorder()
	rec.SuiteStarted("fp", 1, 4)
	rec.RunStarted("s", 4)
	rec.RowFinished("s", 0, 1, time.Millisecond, 1, false)
	deadline := time.After(2 * time.Second)
	var got string
	for !strings.Contains(got, "rows") {
		select {
		case chunk := <-lines:
			got += chunk
		case <-deadline:
			t.Fatalf("no progress line within deadline; got %q", got)
		}
	}
	if !strings.Contains(got, "tool: 1/4 rows") {
		t.Errorf("progress line = %q, want it to report 1/4 rows", got)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	pw.Close()
}

func TestDebugServer(t *testing.T) {
	m := NewMetrics()
	m.RowFinished("s", 0, 1, time.Millisecond, 1, false)
	d, err := ServeDebug("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", d.Addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	vars := get("/debug/vars")
	var payload map[string]json.RawMessage
	if err := json.Unmarshal([]byte(vars), &payload); err != nil {
		t.Fatalf("expvar output is not JSON: %v", err)
	}
	if _, ok := payload["pbsim"]; !ok {
		t.Errorf("/debug/vars missing pbsim variable: %s", vars)
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Errorf("pprof index looks wrong: %.200s", idx)
	}
}

func TestDebugServerBadAddr(t *testing.T) {
	if _, err := ServeDebug("256.256.256.256:99999", nil); err == nil {
		t.Fatal("expected bind error")
	}
}
