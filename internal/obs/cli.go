package obs

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"sync"
	"time"
)

// CLIFlags is the shared observability flag set every command in this
// repository exposes: -metrics (JSONL event file), -progress
// (periodic progress lines plus the end-of-run summary table on
// stderr), and -debug-addr (expvar + pprof HTTP endpoint).
type CLIFlags struct {
	Tool             string
	MetricsPath      string
	Progress         bool
	DebugAddr        string
	ProgressInterval time.Duration
}

// RegisterCLIFlags installs the observability flags on fs (commands
// pass flag.CommandLine) and returns the holder to Start after
// parsing.
func RegisterCLIFlags(fs *flag.FlagSet, tool string) *CLIFlags {
	c := &CLIFlags{Tool: tool, ProgressInterval: 2 * time.Second}
	fs.StringVar(&c.MetricsPath, "metrics", "", "write observability events (JSONL) to this file and print a run summary")
	fs.BoolVar(&c.Progress, "progress", false, "print periodic progress lines and an end-of-run summary to stderr")
	fs.StringVar(&c.DebugAddr, "debug-addr", "", "serve expvar and pprof on this address (e.g. localhost:6060)")
	return c
}

// Session is one command invocation's observability context. Obtain
// it from CLIFlags.Start, hand Recorder() to the experiment/runner
// options, and defer Close: Close stops the progress printer, writes
// the summary event to the JSONL sink, prints the summary table, and
// shuts the debug server down.
type Session struct {
	tool     string
	enabled  bool
	metrics  *Metrics
	rec      Recorder
	sink     *JSONL
	debug    *DebugServer
	stderr   io.Writer
	progress bool

	stopProgress chan struct{}
	progressDone chan struct{}
	closeOnce    sync.Once
	closeErr     error
}

// Start builds the session from the parsed flags. When no
// observability flag was given the session is inert: Recorder()
// returns Nop and Close does nothing.
func (c *CLIFlags) Start(stderr io.Writer) (*Session, error) {
	s := &Session{
		tool:     c.Tool,
		stderr:   stderr,
		enabled:  c.MetricsPath != "" || c.Progress || c.DebugAddr != "",
		progress: c.Progress,
	}
	if !s.enabled {
		return s, nil
	}
	s.metrics = NewMetrics()
	recs := []Recorder{s.metrics}
	if c.MetricsPath != "" {
		sink, err := OpenJSONL(c.MetricsPath)
		if err != nil {
			return nil, err
		}
		s.sink = sink
		recs = append(recs, sink)
	}
	s.rec = Multi(recs...)
	if c.DebugAddr != "" {
		d, err := ServeDebug(c.DebugAddr, s.metrics)
		if err != nil {
			if cerr := s.Close(); cerr != nil {
				err = errors.Join(err, cerr)
			}
			return nil, err
		}
		s.debug = d
		fmt.Fprintf(stderr, "%s: debug server on http://%s/debug/pprof/ (expvar at /debug/vars)\n", c.Tool, d.Addr)
	}
	if c.Progress {
		interval := c.ProgressInterval
		if interval <= 0 {
			interval = 2 * time.Second
		}
		s.stopProgress = make(chan struct{})
		s.progressDone = make(chan struct{})
		go s.printProgress(interval)
	}
	return s, nil
}

// ExitError carries an explicit process exit code alongside an error,
// for failures that are not plain runtime errors (exit code 1): usage
// mistakes exit 2, and tools with richer contracts can pick any code.
type ExitError struct {
	Code int
	Err  error
}

func (e *ExitError) Error() string { return e.Err.Error() }

func (e *ExitError) Unwrap() error { return e.Err }

// Usagef builds the exit-2 error for a command-line usage mistake
// (unknown benchmark name, malformed flag value, missing argument) as
// opposed to a failure of valid work.
func Usagef(format string, args ...any) error {
	return &ExitError{Code: 2, Err: fmt.Errorf(format, args...)}
}

// Exit converts a command's run() error into its process exit code,
// printing the uniform "tool: error: ..." line on stderr for non-nil
// errors. The code contract shared by every CLI in this repository:
//
//	0  success (err == nil)
//	1  the work itself failed (simulation error, partial campaign, I/O)
//	2  usage error (Usagef or an *ExitError carrying 2)
//
// An *ExitError anywhere in err's chain selects its own code. Typical
// use: os.Exit(obs.Exit(os.Stderr, "pbrank", run())).
func Exit(stderr io.Writer, tool string, err error) int {
	if err == nil {
		return 0
	}
	fmt.Fprintf(stderr, "%s: error: %v\n", tool, err)
	var ee *ExitError
	if errors.As(err, &ee) {
		return ee.Code
	}
	return 1
}

// FoldClose closes c and, if the close fails while *err is still nil,
// stores the close error there. It is the deferred-close idiom the
// errdiscard analyzer demands: `defer obs.FoldClose(&err, sess)`
// propagates a failed metrics flush (or checkpoint sync) instead of
// silently discarding it, without displacing an earlier error.
func FoldClose(err *error, c io.Closer) {
	if cerr := c.Close(); cerr != nil && *err == nil {
		*err = cerr
	}
}

// Recorder returns the session's event fan-out, or Nop when
// observability is off.
func (s *Session) Recorder() Recorder {
	if !s.enabled {
		return Nop{}
	}
	return s.rec
}

// Metrics returns the live aggregates (nil when disabled).
func (s *Session) Metrics() *Metrics { return s.metrics }

// printProgress emits one status line per tick until stopped.
func (s *Session) printProgress(interval time.Duration) {
	defer close(s.progressDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stopProgress:
			return
		case <-t.C:
			s.progressLine()
		}
	}
}

func (s *Session) progressLine() {
	m := s.metrics
	done := m.RowsDone()
	total := m.ExpectedRows()
	elapsed := m.Elapsed()
	var rate float64
	if secs := elapsed.Seconds(); secs > 0 {
		rate = float64(m.RowsSimulated.Value()) / secs
	}
	pct := ""
	if total > 0 {
		pct = fmt.Sprintf(" (%.1f%%)", 100*float64(done)/float64(total))
	}
	fmt.Fprintf(s.stderr, "%s: %d/%d rows%s, %.1f rows/s, %d resumed, %d workers\n",
		s.tool, done, total, pct, rate, m.RowsResumed.Value(), m.Workers.Value())
}

// Close finalizes the session: it is idempotent and safe on an inert
// session. The summary table goes to stderr whenever -progress or
// -metrics was given, even after a failed or interrupted run — a
// killed campaign's partial accounting is exactly what the resume
// decision needs.
func (s *Session) Close() error {
	s.closeOnce.Do(func() {
		if !s.enabled {
			return
		}
		if s.stopProgress != nil {
			close(s.stopProgress)
			<-s.progressDone
		}
		summary := s.metrics.Summary(s.tool)
		if s.sink != nil {
			s.sink.WriteSummary(summary)
			if err := s.sink.Close(); err != nil {
				s.closeErr = err
			}
		}
		if s.progress || s.sink != nil {
			fmt.Fprint(s.stderr, summary.Table())
		}
		if s.debug != nil {
			if err := s.debug.Close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}
