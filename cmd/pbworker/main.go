// Command pbworker joins a distributed Plackett-Burman campaign: it
// opens a shared campaign directory created by pbrank -checkpoint,
// reconstructs the experiment task from the campaign manifest, and
// claims, executes, and commits work units (design row × benchmark)
// until the campaign is complete. Any number of pbworker processes —
// across machines, if the directory is on a shared filesystem — can
// work one campaign concurrently; crashed or stalled workers lose
// their leases after -ttl and their units are stolen by the rest.
// Results land in per-worker append-only shard ledgers that
// pbrank -checkpoint (or any later pbrank with the same flags) merges
// into the exact Table 9 an in-memory run prints. Table 12 campaigns
// (pbenhance/tablegen -checkpoint DIR keep DIR/precompute-128, ...)
// join the same way; sampling with an enhancement is still refused.
//
// The manifest's fingerprint is the campaign's whole definition
// (design, budgets, benchmarks, enhancement label, sampling spec): the
// worker parses its options from it, accepting only text this build
// renders itself, and validates the reconstruction by recomputing the
// fingerprint, so a version-skewed worker refuses to join rather than
// committing rows computed under different budgets.
//
// Sampled campaigns need no extra flags here: when pbrank created the
// campaign with -sample, the fingerprint carries the canonical
// sampling spec, and the worker rebuilds the identical deterministic
// region schedule from it.
//
// Usage:
//
//	pbworker -checkpoint campaign/ [-id worker-name] [-ttl 10s] [-poll 0]
//	         [-shard-sync]
//	         [-metrics run.jsonl] [-progress] [-debug-addr localhost:6060]
//
// -poll is the longest wait between passes when every remaining unit
// is leased by another process (0 means 50ms); workers inside one
// process wake each other on every release instead. Units committed
// before the worker joined are reported as resumed rows, under the
// campaign's enhancement label ("base/gzip"), as pbrank reports them.
//
// Exit codes: 0 campaign complete (or completed by others), 1 work
// failure, 2 usage error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pbsim/internal/experiment"
	"pbsim/internal/obs"
	"pbsim/internal/runner/dist"
)

func main() {
	os.Exit(obs.Exit(os.Stderr, "pbworker", run()))
}

func run() (err error) {
	id := flag.String("id", "", "worker name; must be unique among live workers (default host-pid)")
	ttl := flag.Duration("ttl", 10*time.Second, "lease time-to-live; a worker silent this long loses its units")
	poll := flag.Duration("poll", 0, "longest wait between passes when all remaining units are leased by other processes (default 50ms)")
	shardSync := flag.Bool("shard-sync", false, "fsync every commit (survives machine death, not just process death)")
	runFlags := experiment.RegisterRunFlags(flag.CommandLine)
	obsFlags := obs.RegisterCLIFlags(flag.CommandLine, "pbworker")
	flag.Parse()

	dir := runFlags.Checkpoint
	if dir == "" {
		return obs.Usagef("-checkpoint is required (a campaign directory created by pbrank -checkpoint)")
	}
	if *id == "" {
		host, herr := os.Hostname()
		if herr != nil {
			host = "worker"
		}
		*id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sess, err := obsFlags.Start(os.Stderr)
	if err != nil {
		return err
	}
	defer obs.FoldClose(&err, sess)

	c, err := dist.Open(dir)
	if err != nil {
		return err
	}
	man := c.Manifest()
	opts, err := experiment.ParseFingerprint(man.Fingerprint)
	if err != nil {
		return err
	}
	task, err := experiment.CampaignTask(opts, man)
	if err != nil {
		return err
	}
	sess.Recorder().SuiteStarted(man.Fingerprint, len(man.Scopes), man.TotalRows())
	cfg := dist.Config{
		ID:       *id,
		LeaseTTL: *ttl,
		Poll:     *poll,
		Sync:     *shardSync,
		Scope:    opts.Enhance.String(),
		Recorder: sess.Recorder(),
	}
	if err := c.ReportRestored(cfg); err != nil {
		return err
	}
	stats, err := dist.RunWorker(ctx, dir, task, cfg)
	if err != nil {
		return runFlags.Resumable(err)
	}
	fmt.Printf("pbworker %s: campaign complete — committed %d of %d units (%d leases claimed, %d stolen) over %d passes\n",
		*id, stats.Committed, man.TotalRows(), stats.Claimed, stats.Stolen, stats.Passes)
	return nil
}
