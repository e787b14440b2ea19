package dist

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pbsim/internal/obs"
	"pbsim/internal/runner"
)

// testManifest is a small two-scope campaign.
func testManifest() Manifest {
	return Manifest{
		Fingerprint: "fp-test|n=1",
		Scopes: []ScopeSpec{
			{Name: "alpha", Rows: 4},
			{Name: "beta", Rows: 3},
		},
	}
}

// testValue is the deterministic ground truth every test task
// computes: distinct bits per unit, not representable exactly so
// bit-identity actually checks something.
func testValue(scope string, row int) float64 {
	return float64(row+1) / float64(len(scope)+3)
}

func testTask(_ context.Context, scope string, row int) (float64, error) {
	return testValue(scope, row), nil
}

// A campaign directory whose manifest predates the current schema (a
// version 1 manifest, which carried a spec map beside the fingerprint)
// is refused by version, by Open and Create alike.
func TestOldManifestVersionRefused(t *testing.T) {
	dir := t.TempDir()
	old := `{"version":1,"fp":"fp-test|n=1","scopes":[{"name":"alpha","rows":4}],"spec":{"tool":"pbrank"}}`
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "manifest version 1") {
		t.Fatalf("Open = %v, want a version 1 refusal", err)
	}
	if _, err := Create(dir, testManifest()); err == nil || !strings.Contains(err.Error(), "manifest version 1") {
		t.Fatalf("Create = %v, want a version 1 refusal", err)
	}
}

func TestManifestValidate(t *testing.T) {
	cases := []struct {
		name string
		man  Manifest
		want string
	}{
		{"no fingerprint", Manifest{Scopes: []ScopeSpec{{Name: "a", Rows: 1}}}, "no fingerprint"},
		{"no scopes", Manifest{Fingerprint: "fp"}, "no scopes"},
		{"zero rows", Manifest{Fingerprint: "fp", Scopes: []ScopeSpec{{Name: "a"}}}, "invalid scope"},
		{"dup scope", Manifest{Fingerprint: "fp", Scopes: []ScopeSpec{{Name: "a", Rows: 1}, {Name: "a", Rows: 2}}}, "duplicate scope"},
		{"path separator", Manifest{Fingerprint: "fp", Scopes: []ScopeSpec{{Name: "a/b", Rows: 1}}}, "path separators"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Create(t.TempDir(), tc.man); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Create = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestCampaignCreateOpenJoin(t *testing.T) {
	dir := t.TempDir()
	man := testManifest()
	c, err := Create(dir, man)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Manifest(); got.Fingerprint != man.Fingerprint || len(got.Scopes) != 2 {
		t.Fatalf("manifest round-trip mangled: %+v", got)
	}
	if got, want := c.Manifest().TotalRows(), 7; got != want {
		t.Fatalf("TotalRows = %d, want %d", got, want)
	}
	if got := len(c.Manifest().Units()); got != 7 {
		t.Fatalf("Units = %d, want 7", got)
	}

	// Re-create with the same fingerprint joins.
	if _, err := Create(dir, man); err != nil {
		t.Fatalf("idempotent create: %v", err)
	}
	// Re-create with a different fingerprint refuses.
	other := man
	other.Fingerprint = "fp-other"
	if _, err := Create(dir, other); err == nil || !strings.Contains(err.Error(), "refusing to overwrite") {
		t.Fatalf("conflicting create = %v, want refusal", err)
	}

	if _, err := Open(dir); err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := Open(t.TempDir()); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Open(empty) = %v, want ErrNotExist", err)
	}
}

func TestLeaseProtocol(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, testManifest()); err != nil {
		t.Fatal(err)
	}
	u := Unit{Scope: "alpha", Row: 1}
	now := time.Unix(1000, 0)
	ttl := 10 * time.Second

	if res, err := claim(dir, u, "w1", ttl, now); err != nil || res != claimWon {
		t.Fatalf("first claim = %v, %v; want claimWon", res, err)
	}
	// A live lease cannot be claimed by anyone else.
	if res, err := claim(dir, u, "w2", ttl, now.Add(ttl/2)); err != nil || res != claimHeld {
		t.Fatalf("contended claim = %v, %v; want claimHeld", res, err)
	}
	// The owner re-claiming its own live lease is also held: leases
	// are not reentrant, which keeps the protocol one-rule simple.
	if res, err := claim(dir, u, "w1", ttl, now.Add(ttl/2)); err != nil || res != claimHeld {
		t.Fatalf("self re-claim = %v, %v; want claimHeld", res, err)
	}
	// After expiry any worker steals it.
	if res, err := claim(dir, u, "w2", ttl, now.Add(2*ttl)); err != nil || res != claimStolen {
		t.Fatalf("expired claim = %v, %v; want claimStolen", res, err)
	}
	// The loser's release is a no-op on the stolen lease...
	release(dir, u, "w1")
	if rec, err := readLease(leasePath(dir, u)); err != nil || rec.Owner != "w2" {
		t.Fatalf("lease after foreign release = %+v, %v; want owner w2", rec, err)
	}
	// ...the owner's release removes it.
	release(dir, u, "w2")
	if _, err := readLease(leasePath(dir, u)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("lease after owner release = %v, want ErrNotExist", err)
	}
	// A torn lease file (its writer died mid-write) is stealable.
	if err := os.WriteFile(leasePath(dir, u), []byte(`{"owner":"w3","acq`), 0o644); err != nil {
		t.Fatal(err)
	}
	if res, err := claim(dir, u, "w1", ttl, now); err != nil || res != claimStolen {
		t.Fatalf("torn-lease claim = %v, %v; want claimStolen", res, err)
	}
}

func TestRenewLease(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, testManifest()); err != nil {
		t.Fatal(err)
	}
	u := Unit{Scope: "beta", Row: 0}
	now := time.Unix(2000, 0)
	ttl := 10 * time.Second
	if _, err := claim(dir, u, "w1", ttl, now); err != nil {
		t.Fatal(err)
	}
	// Renewal pushes the expiry so a claim that would have stolen now
	// observes a live lease.
	if ok, err := renew(dir, u, "w1", ttl, now.Add(ttl)); err != nil || !ok {
		t.Fatalf("renew = %v, %v; want true", ok, err)
	}
	if res, err := claim(dir, u, "w2", ttl, now.Add(ttl+ttl/2)); err != nil || res != claimHeld {
		t.Fatalf("claim after renew = %v, %v; want claimHeld", res, err)
	}
	// A stolen lease cannot be renewed by the old owner.
	if _, err := claim(dir, u, "w2", ttl, now.Add(10*ttl)); err != nil {
		t.Fatal(err)
	}
	if ok, err := renew(dir, u, "w1", ttl, now.Add(10*ttl)); err != nil || ok {
		t.Fatalf("renew of stolen lease = %v, %v; want false", ok, err)
	}
}

func TestLedgerTornTailAndQuarantine(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, testManifest()); err != nil {
		t.Fatal(err)
	}
	led, err := openLedger(dir, "w1", "fp-test|n=1", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := led.Commit("alpha", 0, 1.25); err != nil {
		t.Fatal(err)
	}
	if err := led.Commit("alpha", 1, 2.5); err != nil {
		t.Fatal(err)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	path := led.Path()

	// Simulate a crash mid-append: a torn final line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"fp":"fp-test|n=1","scope":"alpha","ro`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	entries, quarantine := readLedger(path, "fp-test|n=1")
	if quarantine != "" {
		t.Fatalf("readLedger torn tail: quarantine %q", quarantine)
	}
	if len(entries) != 2 {
		t.Fatalf("torn tail dropped records: got %d entries", len(entries))
	}

	// A resumed worker truncates the torn tail so its appends cannot
	// concatenate onto it.
	led2, err := openLedger(dir, "w1", "fp-test|n=1", false)
	if err != nil {
		t.Fatal(err)
	}
	if err := led2.Commit("alpha", 2, 3.75); err != nil {
		t.Fatal(err)
	}
	if err := led2.Close(); err != nil {
		t.Fatal(err)
	}
	entries, quarantine = readLedger(path, "fp-test|n=1")
	if quarantine != "" {
		t.Fatalf("readLedger after resume: quarantine %q", quarantine)
	}
	if len(entries) != 3 || entries[2].Row != 2 {
		t.Fatalf("resumed append mangled: %+v", entries)
	}

	// Corrupt a MID-file record: quarantined, but intact lines survive.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	lines[1] = `garbage not json`
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, quarantine = readLedger(path, "fp-test|n=1")
	if quarantine == "" {
		t.Fatal("corrupt mid-file: no quarantine reason")
	}
	if len(entries) != 2 {
		t.Fatalf("quarantined shard lost intact records: %+v", entries)
	}

	// Foreign-fingerprint records are skipped.
	if entries, _ = readLedger(path, "some-other-fp"); len(entries) != 0 {
		t.Fatalf("foreign fp: %d entries, want 0", len(entries))
	}
}

func TestLedgerCommitAfterCloseAndStickyError(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, testManifest()); err != nil {
		t.Fatal(err)
	}
	led, err := openLedger(dir, "w1", "fp", false)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage the descriptor so the next write fails.
	if err := led.f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := led.Commit("alpha", 0, 1); err == nil {
		t.Fatal("Commit on closed fd succeeded")
	}
	// The failure is sticky: Close reports it, and so does a retry.
	if err := led.Commit("alpha", 0, 1); err == nil {
		t.Fatal("second Commit forgot the write error")
	}
	if err := led.Close(); err == nil {
		t.Fatal("Close forgot the write error")
	}
}

func TestMergeDuplicatesConflictsAndMissing(t *testing.T) {
	dir := t.TempDir()
	man := testManifest()
	c, err := Create(dir, man)
	if err != nil {
		t.Fatal(err)
	}

	commitAll := func(worker string, units []Unit, bump float64) {
		t.Helper()
		led, err := openLedger(dir, worker, man.Fingerprint, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range units {
			if err := led.Commit(u.Scope, u.Row, testValue(u.Scope, u.Row)+bump); err != nil {
				t.Fatal(err)
			}
		}
		if err := led.Close(); err != nil {
			t.Fatal(err)
		}
	}

	units := man.Units()
	// Shard 1 commits the first five units, shard 2 the last five:
	// units 2..4 are duplicated (identical bits), unit coverage total.
	commitAll("w1", units[:5], 0)
	commitAll("w2", units[2:], 0)

	m := obs.NewMetrics()
	res, err := c.Merge(m)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() || len(res.Missing) != 0 {
		t.Fatalf("merge incomplete: %+v", res.Missing)
	}
	if res.Committed != 7 || res.Duplicates != 3 {
		t.Fatalf("Committed=%d Duplicates=%d, want 7 and 3", res.Committed, res.Duplicates)
	}
	for _, u := range units {
		got := res.Values[u.Scope][u.Row]
		if math.Float64bits(got) != math.Float64bits(testValue(u.Scope, u.Row)) {
			t.Fatalf("unit %s = %x, want %x", u, math.Float64bits(got), math.Float64bits(testValue(u.Scope, u.Row)))
		}
	}
	if vec, err := res.Responses("alpha"); err != nil || len(vec) != 4 {
		t.Fatalf("Responses(alpha) = %d values, %v", len(vec), err)
	}
	if _, err := res.Responses("nope"); err == nil {
		t.Fatal("Responses of unknown scope succeeded")
	}

	// A conflicting duplicate (different bits) fails the merge loudly.
	commitAll("w3", units[:1], 1e-9)
	var conflict *ConflictError
	if _, err := c.Merge(nil); !errors.As(err, &conflict) {
		t.Fatalf("merge with conflicting commit = %v, want *ConflictError", err)
	}
	if conflict.Unit != units[0] {
		t.Fatalf("conflict unit = %s, want %s", conflict.Unit, units[0])
	}
	if err := os.Remove(filepath.Join(dir, shardDir, "w3.jsonl")); err != nil {
		t.Fatal(err)
	}

	// A commit outside the manifest's geometry fails the merge.
	commitAll("w4", []Unit{{Scope: "alpha", Row: 99}}, 0)
	if _, err := c.Merge(nil); err == nil || !strings.Contains(err.Error(), "outside the campaign manifest") {
		t.Fatalf("out-of-range commit merge = %v", err)
	}
	if err := os.Remove(filepath.Join(dir, shardDir, "w4.jsonl")); err != nil {
		t.Fatal(err)
	}

	// Missing units are reported in manifest order.
	dir2 := t.TempDir()
	c2, err := Create(dir2, man)
	if err != nil {
		t.Fatal(err)
	}
	led, err := openLedger(dir2, "w1", man.Fingerprint, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := led.Commit("alpha", 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	res2, err := c2.Merge(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Complete() || len(res2.Missing) != 6 {
		t.Fatalf("Missing = %+v, want 6 units", res2.Missing)
	}
	if _, err := res2.Responses("alpha"); err == nil || !strings.Contains(err.Error(), "never committed") {
		t.Fatalf("Responses on incomplete scope = %v", err)
	}
}

func TestMergeQuarantinesUnreadableRecordsStillCounted(t *testing.T) {
	dir := t.TempDir()
	man := testManifest()
	c, err := Create(dir, man)
	if err != nil {
		t.Fatal(err)
	}
	// One healthy shard covering everything, plus one wholly garbage
	// shard: merge completes and reports the quarantine.
	led, err := openLedger(dir, "good", man.Fingerprint, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range man.Units() {
		if err := led.Commit(u.Scope, u.Row, testValue(u.Scope, u.Row)); err != nil {
			t.Fatal(err)
		}
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	garbage := filepath.Join(dir, shardDir, "bad.jsonl")
	if err := os.WriteFile(garbage, []byte("not json\nalso not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	met := obs.NewMetrics()
	res, err := c.Merge(met)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() {
		t.Fatalf("merge incomplete despite healthy shard: missing %v", res.Missing)
	}
	if len(res.Quarantined) != 1 || res.Quarantined[0].Path != garbage {
		t.Fatalf("Quarantined = %+v, want bad.jsonl", res.Quarantined)
	}
	if got := met.Summary("test").ShardsQuarantined; got != 1 {
		t.Fatalf("metrics ShardsQuarantined = %d, want 1", got)
	}
}

func TestRunWorkerCompletesCampaign(t *testing.T) {
	dir := t.TempDir()
	man := testManifest()
	if _, err := Create(dir, man); err != nil {
		t.Fatal(err)
	}
	met := obs.NewMetrics()
	stats, err := RunWorker(context.Background(), dir, testTask, Config{
		ID:       "solo",
		LeaseTTL: time.Minute,
		Recorder: met,
	})
	if err != nil {
		t.Fatalf("RunWorker: %v (stats %+v)", err, stats)
	}
	if stats.Committed != 7 || stats.Claimed != 7 || stats.Stolen != 0 || stats.Crashed {
		t.Fatalf("stats = %+v, want 7 committed, 7 claimed", stats)
	}
	res, err := MergeDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() || res.Duplicates != 0 {
		t.Fatalf("merge after solo worker: %+v", res)
	}
	sum := met.Summary("test")
	if sum.LeasesClaimed != 7 || sum.Commits != 7 {
		t.Fatalf("metrics = %+v, want 7 leases and commits", sum)
	}
	// All leases released.
	entries, err := os.ReadDir(filepath.Join(dir, leaseDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("leases left behind: %v", entries)
	}
}

func TestRunWorkerConfigErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, testManifest()); err != nil {
		t.Fatal(err)
	}
	if _, err := RunWorker(context.Background(), dir, testTask, Config{}); err == nil {
		t.Fatal("RunWorker without ID succeeded")
	}
	if _, err := RunWorker(context.Background(), t.TempDir(), testTask, Config{ID: "w"}); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("RunWorker on empty dir = %v, want ErrNotExist", err)
	}
}

func TestRunWorkerPermanentFailure(t *testing.T) {
	dir := t.TempDir()
	man := testManifest()
	if _, err := Create(dir, man); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	task := func(ctx context.Context, scope string, row int) (float64, error) {
		if scope == "beta" && row == 1 {
			return 0, boom
		}
		return testTask(ctx, scope, row)
	}
	stats, err := RunWorker(context.Background(), dir, task, Config{ID: "w", LeaseTTL: time.Minute})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("RunWorker = %v, want boom", err)
	}
	if stats.Committed != 6 {
		t.Fatalf("committed %d healthy units, want 6", stats.Committed)
	}
	res, err := MergeDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Missing) != 1 || res.Missing[0] != (Unit{Scope: "beta", Row: 1}) {
		t.Fatalf("Missing = %+v, want beta/1", res.Missing)
	}
	// The failed unit's lease was released so another worker (with a
	// fixed binary) could retry it.
	if _, err := os.Stat(leasePath(dir, Unit{Scope: "beta", Row: 1})); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed unit's lease not released: %v", err)
	}
}

// TestRunWorkerExecutesFailingUnitOnce pins that a worker attempts
// every unit exactly once: a unit whose task fails is not executed
// again, neither in the same pass nor in a later one, and the
// worker's aggregate error names it.
func TestRunWorkerExecutesFailingUnitOnce(t *testing.T) {
	dir := t.TempDir()
	man := testManifest()
	if _, err := Create(dir, man); err != nil {
		t.Fatal(err)
	}
	bad := Unit{Scope: "beta", Row: 1}
	var mu sync.Mutex
	calls := make(map[Unit]int)
	task := func(ctx context.Context, scope string, row int) (float64, error) {
		u := Unit{Scope: scope, Row: row}
		mu.Lock()
		calls[u]++
		mu.Unlock()
		if u == bad {
			return 0, errors.New("deterministic failure")
		}
		return testTask(ctx, scope, row)
	}
	m := obs.NewMetrics()
	stats, err := RunWorker(context.Background(), dir, task, Config{ID: "w", LeaseTTL: time.Minute, Recorder: m})
	if err == nil || !strings.Contains(err.Error(), "1 units failed: beta/1: ") {
		t.Fatalf("RunWorker = %v, want an aggregate naming beta/1", err)
	}
	var re *runner.RowError
	if !errors.As(err, &re) || re.Scope != "beta" || re.Row != 1 {
		t.Fatalf("errors.As through the aggregate found %+v, want beta row 1", re)
	}
	for _, u := range man.Units() {
		if calls[u] != 1 {
			t.Errorf("unit %s executed %d times, want 1", u, calls[u])
		}
	}
	if stats.Committed != 6 {
		t.Errorf("committed %d units, want 6", stats.Committed)
	}
	if a, f := m.Attempts.Value(), m.RowsFailed.Value(); a != 7 || f != 1 {
		t.Errorf("Attempts = %d, RowsFailed = %d; want 7 and 1", a, f)
	}
}

// TestCallerDeadlineInterruptsRunWorker: a deadline on the caller's
// context that expires while the worker holds a unit's lease is an
// interruption. The worker releases that lease and returns without
// committing the unit, so another worker can claim it at once.
func TestCallerDeadlineInterruptsRunWorker(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, testManifest()); err != nil {
		t.Fatal(err)
	}
	held := Unit{Scope: "beta", Row: 1}
	task := func(ctx context.Context, scope string, row int) (float64, error) {
		if (Unit{Scope: scope, Row: row}) == held {
			<-ctx.Done()
			return 0, ctx.Err()
		}
		return testTask(ctx, scope, row)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	stats, err := RunWorker(ctx, dir, task, Config{ID: "w", LeaseTTL: time.Minute})
	if !runner.Cancelled(err) {
		t.Fatalf("RunWorker = %v (stats %+v), want an interruption", err, stats)
	}
	if stats.Crashed || stats.Committed >= 7 {
		t.Fatalf("stats = %+v, want fewer than 7 commits and no crash", stats)
	}
	if _, err := os.Stat(leasePath(dir, held)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("lease of the interrupted unit not released: %v", err)
	}
	leases, err := os.ReadDir(filepath.Join(dir, leaseDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(leases) != 0 {
		t.Fatalf("leases left behind: %v", leases)
	}
	res, err := MergeDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(res.Values[held.Scope][held.Row]) {
		t.Fatalf("interrupted unit %s was committed", held)
	}
}

func TestRunWorkerCrashLeavesLeaseAndResumeSteals(t *testing.T) {
	dir := t.TempDir()
	man := testManifest()
	if _, err := Create(dir, man); err != nil {
		t.Fatal(err)
	}
	// The faults injector is shared across restarts, like the history
	// of a real machine: the first execution of alpha-or-beta row 2
	// dies at the commit boundary.
	faults := &runner.Faults{CrashRows: map[int]int{2: 1}}
	cfg := Config{
		ID:       "w1",
		LeaseTTL: 50 * time.Millisecond,
		Wrap:     faults.Wrap,
	}
	stats, err := RunWorker(context.Background(), dir, testTask, cfg)
	if !errors.Is(err, runner.ErrCrash) || !stats.Crashed {
		t.Fatalf("first incarnation = %v (stats %+v), want ErrCrash", err, stats)
	}
	// The "dead" worker's lease is still on disk — crash must not
	// release it, or the protocol would be hiding behind cleanup that
	// a kill -9 never runs.
	leases, err := os.ReadDir(filepath.Join(dir, leaseDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(leases) != 1 {
		t.Fatalf("leases after crash = %d, want exactly the dead worker's", len(leases))
	}

	// A second worker finishes the campaign, stealing the orphan
	// lease once it expires.
	time.Sleep(60 * time.Millisecond)
	stats2, err := RunWorker(context.Background(), dir, testTask, Config{
		ID:       "w2",
		LeaseTTL: 50 * time.Millisecond,
		Wrap:     faults.Wrap,
	})
	if err != nil {
		t.Fatalf("second incarnation: %v (stats %+v)", err, stats2)
	}
	if stats2.Stolen == 0 {
		t.Fatalf("second worker stole nothing: %+v", stats2)
	}
	res, err := MergeDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() {
		t.Fatalf("campaign incomplete after resume: missing %v", res.Missing)
	}
	for _, u := range man.Units() {
		got := res.Values[u.Scope][u.Row]
		if math.Float64bits(got) != math.Float64bits(testValue(u.Scope, u.Row)) {
			t.Fatalf("unit %s = %v, want %v", u, got, testValue(u.Scope, u.Row))
		}
	}
}

func TestRunWorkerSkipsUnitCommittedByPreviousLeaseHolder(t *testing.T) {
	dir := t.TempDir()
	man := testManifest()
	c, err := Create(dir, man)
	if err != nil {
		t.Fatal(err)
	}
	// A "dead" worker committed alpha/0 but its lease is still on
	// disk, expired: the next worker steals the lease, notices the
	// commit, and releases without re-executing.
	led, err := openLedger(dir, "dead", man.Fingerprint, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := led.Commit("alpha", 0, testValue("alpha", 0)); err != nil {
		t.Fatal(err)
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	u := Unit{Scope: "alpha", Row: 0}
	if _, err := claim(dir, u, "dead", -time.Second, time.Now()); err != nil {
		t.Fatal(err)
	}
	executed := make(map[Unit]int)
	var mu sync.Mutex
	task := func(ctx context.Context, scope string, row int) (float64, error) {
		mu.Lock()
		executed[Unit{Scope: scope, Row: row}]++
		mu.Unlock()
		return testTask(ctx, scope, row)
	}
	if _, err := RunWorker(context.Background(), dir, task, Config{ID: "w2", LeaseTTL: time.Minute}); err != nil {
		t.Fatal(err)
	}
	if executed[u] != 0 {
		t.Fatalf("unit %s re-executed %d times despite being committed", u, executed[u])
	}
	res, err := c.Merge(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() || res.Duplicates != 0 {
		t.Fatalf("merge = %+v, want complete with no duplicates", res)
	}
}

// TestHammerConcurrentWorkers is the -race hammer: many workers
// hammer one campaign concurrently — some crashing at injected
// points and restarting, heartbeats disabled so stalls look like
// deaths and leases get stolen — and the merged ledger must still be
// bit-identical to a sequential run, with every unit present exactly
// once in the value vectors and no lease double-held past expiry.
func TestHammerConcurrentWorkers(t *testing.T) {
	dir := t.TempDir()
	man := Manifest{
		Fingerprint: "fp-hammer",
		Scopes: []ScopeSpec{
			{Name: "alpha", Rows: 16},
			{Name: "beta", Rows: 16},
			{Name: "gamma", Rows: 16},
		},
	}
	if _, err := Create(dir, man); err != nil {
		t.Fatal(err)
	}

	// Sequential ground truth.
	want := make(map[Unit]float64)
	for _, u := range man.Units() {
		want[u] = testValue(u.Scope, u.Row)
	}

	const workers = 8
	// Each worker crashes on its first execution of a few rows; the
	// injectors are per-worker (a real fleet's machines fail
	// independently).
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			faults := &runner.Faults{CrashRows: map[int]int{w: 1, w + 8: 1}}
			id := fmt.Sprintf("w%d", w)
			for incarnation := 0; ; incarnation++ {
				cfg := Config{
					ID:        fmt.Sprintf("%s-i%d", id, incarnation),
					LeaseTTL:  30 * time.Millisecond,
					Heartbeat: -1, // stalls look like deaths; steals happen
					Poll:      5 * time.Millisecond,
					Wrap:      faults.Wrap,
				}
				_, err := RunWorker(context.Background(), dir, testTask, cfg)
				if err == nil {
					return
				}
				if errors.Is(err, runner.ErrCrash) {
					continue // "restart the process"
				}
				t.Errorf("worker %s: %v", cfg.ID, err)
				return
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	res, err := MergeDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() {
		t.Fatalf("hammered campaign incomplete: missing %v", res.Missing)
	}
	for u, v := range want {
		got := res.Values[u.Scope][u.Row]
		if math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("unit %s = %x, want %x", u, math.Float64bits(got), math.Float64bits(v))
		}
	}
	if res.Committed != len(want) {
		t.Fatalf("Committed = %d, want %d", res.Committed, len(want))
	}
	t.Logf("hammer: %d units, %d duplicate commits proven identical, %d quarantined",
		res.Committed, res.Duplicates, len(res.Quarantined))
}

func TestRotationStable(t *testing.T) {
	if rotation("w1", 10) != rotation("w1", 10) {
		t.Fatal("rotation not stable")
	}
	if rotation("", 0) != 0 || rotation("x", -1) != 0 {
		t.Fatal("rotation on empty range should be 0")
	}
	if r := rotation("worker-7", 13); r < 0 || r >= 13 {
		t.Fatalf("rotation out of range: %d", r)
	}
}

// writeLeaseExcl creates a lease before writing it, so a claimant can
// find it empty. An unreadable lease modified within the TTL is a live
// claim caught mid-write and must be held; one older than the TTL
// belongs to a writer that died and is stolen.
func TestLeaseUnreadableYoungIsHeld(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, testManifest()); err != nil {
		t.Fatal(err)
	}
	u := Unit{Scope: "alpha", Row: 2}
	path := leasePath(dir, u)
	now := time.Now()
	ttl := 10 * time.Second
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, now, now); err != nil {
		t.Fatal(err)
	}
	if res, err := claim(dir, u, "w2", ttl, now); err != nil || res != claimHeld {
		t.Fatalf("fresh empty lease claim = %v, %v; want claimHeld", res, err)
	}
	old := now.Add(-2 * ttl)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	if res, err := claim(dir, u, "w2", ttl, now); err != nil || res != claimStolen {
		t.Fatalf("stale empty lease claim = %v, %v; want claimStolen", res, err)
	}
}

// The worker's incremental tail must see every commit: across a
// partially written line, a restarted worker's torn-tail truncation,
// and another worker's appends — and its offset only ever rests on a
// line boundary.
func TestShardTailFollowsTruncationAndAppends(t *testing.T) {
	dir := t.TempDir()
	man := testManifest()
	c, err := Create(dir, man)
	if err != nil {
		t.Fatal(err)
	}
	commit := func(worker string, units ...Unit) {
		t.Helper()
		led, err := openLedger(dir, worker, man.Fingerprint, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range units {
			if err := led.Commit(u.Scope, u.Row, testValue(u.Scope, u.Row)); err != nil {
				t.Fatal(err)
			}
		}
		if err := led.Close(); err != nil {
			t.Fatal(err)
		}
	}
	appendRaw := func(path, text string) {
		t.Helper()
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(text); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	tail := newShardTail(c)
	want := func(units ...Unit) {
		t.Helper()
		if len(tail.done) != len(units) {
			t.Fatalf("done = %v, want %v", tail.done, units)
		}
		for _, u := range units {
			if !tail.done[u] {
				t.Fatalf("done = %v, missing %s", tail.done, u)
			}
		}
	}
	a0, a1, a2, b0 := Unit{"alpha", 0}, Unit{"alpha", 1}, Unit{"alpha", 2}, Unit{"beta", 0}
	w1 := filepath.Join(dir, shardDir, "w1.jsonl")

	commit("w1", a0)
	// A line still being written is not consumed...
	appendRaw(w1, `{"fp":"fp-test|n=1","scope":"alpha","row":1,`)
	mustRefresh(t, tail)
	want(a0)
	// ...and is picked up whole once its newline lands.
	appendRaw(w1, `"value":0.25}`+"\n")
	mustRefresh(t, tail)
	want(a0, a1)
	if fi, err := os.Stat(w1); err != nil || tail.off[w1] != fi.Size() {
		t.Fatalf("offset %d, want the file size (%v)", tail.off[w1], err)
	}
	// A crash tears the tail; the restarted worker truncates it and
	// appends, and another worker commits to its own shard.
	appendRaw(w1, `{"fp":"fp-test|n=1","scope":"alpha","ro`)
	mustRefresh(t, tail)
	commit("w1", a2)
	commit("w2", b0)
	mustRefresh(t, tail)
	want(a0, a1, a2, b0)
}

// Committed values survive the ledger bit-exactly, however awkward.
func TestLedgerRoundTripBitExact(t *testing.T) {
	dir := t.TempDir()
	man := Manifest{Fingerprint: "fp", Scopes: []ScopeSpec{{Name: "s", Rows: 4}}}
	c, err := Create(dir, man)
	if err != nil {
		t.Fatal(err)
	}
	values := []float64{1.0 / 3.0, math.Pi * 1e15, 5e-324, 123456789}
	led, err := openLedger(dir, "w", man.Fingerprint, false)
	if err != nil {
		t.Fatal(err)
	}
	for row, v := range values {
		if err := led.Commit("s", row, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := c.Merge(nil)
	if err != nil {
		t.Fatal(err)
	}
	for row, v := range values {
		if got := res.Values["s"][row]; math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("row %d: %x, want %x", row, math.Float64bits(got), math.Float64bits(v))
		}
	}
}

// In Sync mode a commit is on disk when Commit returns, before Close.
func TestLedgerSyncMode(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, testManifest()); err != nil {
		t.Fatal(err)
	}
	led, err := openLedger(dir, "w", "fp", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := led.Commit("alpha", 0, 1.5); err != nil {
		t.Fatal(err)
	}
	if entries, _ := readLedger(led.Path(), "fp"); len(entries) != 1 {
		t.Fatalf("synced commit not visible before Close: %d entries", len(entries))
	}
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
}

func mustRefresh(t *testing.T, tail *shardTail) {
	t.Helper()
	if err := tail.refresh(); err != nil {
		t.Fatal(err)
	}
}
