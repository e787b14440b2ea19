// Package dist is the coordinator-free, crash-safe execution layer
// behind every resumable run: any number of workers — the in-process
// workers of a -checkpoint run (Run), cmd/pbworker processes, on any
// mix of machines sharing one directory — claim units of work (design
// row × benchmark scope) via lease files, execute them through the
// fault-tolerant runner, and commit results to per-worker append-only
// JSONL shard ledgers. A deterministic merge step folds any set of
// shard ledgers back into the exact response vectors an in-memory run
// produces.
//
// There is deliberately no coordinator process and no network
// protocol: the shared directory IS the coordination medium, and every
// primitive is chosen so that a crash at any instant leaves the
// campaign recoverable:
//
//   - Claiming a unit creates its lease file with O_CREATE|O_EXCL —
//     the filesystem arbitrates exactly one winner.
//   - A live worker heartbeats its lease by atomically rewriting it
//     (write-to-temp + rename) with a fresh expiry.
//   - A lease whose expiry has passed belongs to a dead or stalled
//     worker; any worker may steal it. The steal renames the expired
//     lease to a unique tombstone first — rename succeeds for exactly
//     one stealer — and then claims fresh, so two stealers can never
//     both hold the unit.
//   - Commits are single appended JSONL lines (flushed, optionally
//     fsynced), so the only damage a crash mid-write can leave is a
//     final line without its newline. The decoder skips exactly that
//     line, and a restarted worker truncates exactly that line.
//
// Correctness never rests on the leases: they only suppress duplicate
// work. The simulator is deterministic, so a unit executed twice —
// stolen lease, lost heartbeat, crashed-after-commit worker — commits
// the bit-identical value twice, and Merge proves it (a duplicate with
// different bits fails the merge loudly: that is a determinism or
// corruption bug, never something to paper over).
package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ManifestVersion is the on-disk manifest schema version; Open refuses
// a manifest of any other version.
const ManifestVersion = 2

// manifestName is the campaign manifest file inside the campaign dir.
const manifestName = "manifest.json"

// leaseDir and shardDir are the campaign subdirectories.
const (
	leaseDir = "leases"
	shardDir = "shards"
)

// ScopeSpec declares one scope (typically one benchmark) and its
// dense row count [0, Rows).
type ScopeSpec struct {
	Name string `json:"name"`
	Rows int    `json:"rows"`
}

// Manifest declares a campaign: the experiment fingerprint every
// commit must carry and the scopes with their row counts. The
// fingerprint is the campaign's whole definition, so a joining worker
// (cmd/pbworker) rebuilds the task function from it alone.
type Manifest struct {
	Version     int         `json:"version"`
	Fingerprint string      `json:"fp"`
	Scopes      []ScopeSpec `json:"scopes"`
}

// Units returns every work unit of the manifest in deterministic
// (scope declaration, row) order.
func (m Manifest) Units() []Unit {
	var units []Unit
	for _, s := range m.Scopes {
		for r := 0; r < s.Rows; r++ {
			units = append(units, Unit{Scope: s.Name, Row: r})
		}
	}
	return units
}

// TotalRows returns the campaign size in units.
func (m Manifest) TotalRows() int {
	n := 0
	for _, s := range m.Scopes {
		n += s.Rows
	}
	return n
}

func (m *Manifest) validate() error {
	if m.Fingerprint == "" {
		return errors.New("dist: manifest has no fingerprint")
	}
	if len(m.Scopes) == 0 {
		return errors.New("dist: manifest has no scopes")
	}
	seen := make(map[string]bool, len(m.Scopes))
	for _, s := range m.Scopes {
		if s.Name == "" || s.Rows <= 0 {
			return fmt.Errorf("dist: invalid scope %q with %d rows", s.Name, s.Rows)
		}
		if strings.ContainsAny(s.Name, "/\\\x00") {
			return fmt.Errorf("dist: scope %q must not contain path separators", s.Name)
		}
		if seen[s.Name] {
			return fmt.Errorf("dist: duplicate scope %q", s.Name)
		}
		seen[s.Name] = true
	}
	return nil
}

// Unit is one claimable, committable piece of work.
type Unit struct {
	Scope string
	Row   int
}

func (u Unit) String() string { return fmt.Sprintf("%s/%d", u.Scope, u.Row) }

// Campaign is an open campaign directory.
type Campaign struct {
	dir string
	man Manifest
}

// Create initializes dir as a campaign for man, creating the
// directory tree and writing the manifest atomically (temp file +
// rename), so a crash mid-create never leaves a half-written manifest
// for workers to trip over. Creating over an existing campaign is a
// join: if the directory already holds a manifest with the identical
// fingerprint the existing campaign is returned (the idempotence that
// lets N processes race to "create" the same campaign); a differing
// fingerprint is an error, never an overwrite.
func Create(dir string, man Manifest) (*Campaign, error) {
	man.Version = ManifestVersion
	if err := man.validate(); err != nil {
		return nil, err
	}
	for _, sub := range []string{"", leaseDir, shardDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("dist: create campaign dir: %w", err)
		}
	}
	path := filepath.Join(dir, manifestName)
	if existing, err := Open(dir); err == nil {
		if existing.man.Fingerprint != man.Fingerprint {
			return nil, fmt.Errorf("dist: campaign %s already exists with fingerprint %q (want %q); refusing to overwrite",
				dir, existing.man.Fingerprint, man.Fingerprint)
		}
		return existing, nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("dist: encode manifest: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".manifest-*")
	if err != nil {
		return nil, fmt.Errorf("dist: write manifest: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()        //pbcheck:ignore errdiscard error-path cleanup of a temp file that never became the manifest
		os.Remove(tmpName) //pbcheck:ignore errdiscard best-effort temp cleanup on the write-error path
		return nil, fmt.Errorf("dist: write manifest: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()        //pbcheck:ignore errdiscard error-path cleanup of a temp file that never became the manifest
		os.Remove(tmpName) //pbcheck:ignore errdiscard best-effort temp cleanup on the sync-error path
		return nil, fmt.Errorf("dist: sync manifest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName) //pbcheck:ignore errdiscard best-effort temp cleanup on the close-error path
		return nil, fmt.Errorf("dist: close manifest: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName) //pbcheck:ignore errdiscard best-effort temp cleanup; the rename already failed
		// Lost the create race: someone else renamed first. Fall back
		// to joining whatever they wrote.
		if existing, oerr := Open(dir); oerr == nil {
			if existing.man.Fingerprint != man.Fingerprint {
				return nil, fmt.Errorf("dist: campaign %s created concurrently with fingerprint %q (want %q)",
					dir, existing.man.Fingerprint, man.Fingerprint)
			}
			return existing, nil
		}
		return nil, fmt.Errorf("dist: install manifest: %w", err)
	}
	return &Campaign{dir: dir, man: man}, nil
}

// Open joins the campaign at dir, reading and validating its
// manifest. A missing manifest surfaces as os.ErrNotExist.
func Open(dir string) (*Campaign, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("dist: open campaign: %w", err)
	}
	man, err := decodeManifest(data)
	if err != nil {
		return nil, err
	}
	return &Campaign{dir: dir, man: man}, nil
}

// decodeManifest parses and validates manifest bytes.
func decodeManifest(data []byte) (Manifest, error) {
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return man, fmt.Errorf("dist: corrupt manifest: %w", err)
	}
	if man.Version != ManifestVersion {
		return man, fmt.Errorf("dist: manifest version %d, this build understands %d", man.Version, ManifestVersion)
	}
	return man, man.validate()
}

// Dir returns the campaign directory.
func (c *Campaign) Dir() string { return c.dir }

// Manifest returns a copy of the campaign manifest.
func (c *Campaign) Manifest() Manifest { return c.man }

// shardPaths lists the campaign's shard ledger files in sorted order,
// the deterministic input order for Merge.
func (c *Campaign) shardPaths() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(c.dir, shardDir))
	if err != nil {
		return nil, fmt.Errorf("dist: list shards: %w", err)
	}
	var paths []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".jsonl") {
			continue
		}
		paths = append(paths, filepath.Join(c.dir, shardDir, e.Name()))
	}
	sort.Strings(paths)
	return paths, nil
}
