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
// into the exact Table 9 an in-memory run prints. Campaigns whose
// suite runs an enhancement shortcut (pbenhance, tablegen's Table 12)
// carry no spec to reconstruct and are refused.
//
// The worker validates its reconstruction: the fingerprint recomputed
// from the manifest's spec must match the manifest's, so a version-
// or flag-skewed worker refuses to join rather than committing rows
// computed under different budgets.
//
// Sampled campaigns need no extra flags here: when pbrank created the
// campaign with -sample, the manifest's spec carries the canonical
// sampling parameters, the worker rebuilds the identical deterministic
// region schedule from them, and the fingerprint check refuses any
// worker whose reconstruction would not be bit-identical.
//
// Usage:
//
//	pbworker -checkpoint campaign/ [-id worker-name] [-ttl 10s] [-poll 0]
//	         [-sync] [-timeout 0] [-retries 0]
//	         [-metrics run.jsonl] [-progress] [-debug-addr localhost:6060]
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
	"pbsim/internal/runner"
	"pbsim/internal/runner/dist"
)

func main() {
	os.Exit(obs.Exit(os.Stderr, "pbworker", run()))
}

func run() (err error) {
	id := flag.String("id", "", "worker name; must be unique among live workers (default host-pid)")
	ttl := flag.Duration("ttl", 10*time.Second, "lease time-to-live; a worker silent this long loses its units")
	poll := flag.Duration("poll", 0, "wait between passes when all remaining units are leased elsewhere (default ttl/4)")
	sync := flag.Bool("sync", false, "fsync the shard ledger after every commit (survives machine death, not just process death)")
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
	opts, err := experiment.OptionsFromSpec(man.Spec)
	if err != nil {
		return err
	}
	task, err := experiment.CampaignTask(opts, man)
	if err != nil {
		return err
	}
	if rec := sess.Recorder(); rec != nil {
		rec.SuiteStarted(man.Fingerprint, len(man.Scopes), man.TotalRows())
	}
	stats, err := dist.RunWorker(ctx, dir, task, dist.Config{
		ID:       *id,
		LeaseTTL: *ttl,
		Poll:     *poll,
		Sync:     *sync,
		Runner: runner.Config{
			Timeout: runFlags.Timeout,
			Retries: runFlags.Retries,
		},
		Recorder: sess.Recorder(),
	})
	if err != nil {
		return runFlags.Resumable(err)
	}
	fmt.Printf("pbworker %s: campaign complete — committed %d of %d units (%d leases claimed, %d stolen) over %d passes\n",
		*id, stats.Committed, man.TotalRows(), stats.Claimed, stats.Stolen, stats.Passes)
	return nil
}
