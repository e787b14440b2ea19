package dist

import (
	"fmt"
	"math"
	"sort"

	"pbsim/internal/obs"
)

// QuarantinedShard names a shard ledger merge could not fully trust,
// with the reason (unreadable file, corrupt mid-file record).
type QuarantinedShard struct {
	Path   string `json:"path"`
	Reason string `json:"reason"`
}

// MergeResult is the deterministic fold of every shard ledger in a
// campaign directory.
type MergeResult struct {
	Fingerprint string
	// Values holds, per scope, the dense response vector. Rows never
	// committed are NaN and listed in Missing; a complete campaign has
	// none.
	Values map[string][]float64
	// Committed counts distinct committed units, Duplicates the extra
	// commits beyond the first (stolen leases, lost heartbeats) — all
	// proven bit-identical to the first.
	Committed  int
	Duplicates int
	// Missing lists units no shard committed, in manifest order.
	Missing []Unit
	// Quarantined lists shards with damage beyond a torn tail.
	Quarantined []QuarantinedShard
}

// Complete reports whether every unit of the campaign is present.
func (r *MergeResult) Complete() bool { return len(r.Missing) == 0 }

// Responses returns the scope's dense response vector, failing if any
// row is missing — the guard every consumer must pass before feeding
// vectors into effects computation.
func (r *MergeResult) Responses(scope string) ([]float64, error) {
	vec, ok := r.Values[scope]
	if !ok {
		return nil, fmt.Errorf("dist: no scope %q in merge", scope)
	}
	for i, v := range vec {
		if math.IsNaN(v) {
			return nil, fmt.Errorf("dist: scope %q row %d was never committed", scope, i)
		}
	}
	return vec, nil
}

// ConflictError reports two commits of the same unit with different
// bits: a determinism violation or silent corruption. It is always
// fatal — a campaign whose workers disagree must never produce a
// table.
type ConflictError struct {
	Unit
	A, B   float64
	ShardA string
	ShardB string
}

func (e *ConflictError) Error() string {
	return fmt.Sprintf("dist: conflicting commits for %s: %x (%s) vs %x (%s); refusing to merge a nondeterministic campaign",
		e.Unit, math.Float64bits(e.A), e.ShardA, math.Float64bits(e.B), e.ShardB)
}

// Merge folds every shard ledger of the campaign into the canonical
// result vectors. It is deterministic in the strongest sense the
// bit-identity tests demand: any set of shards that together cover
// the campaign — one worker or fifty, crashed and restarted in any
// order, with any pattern of duplicate commits from stolen leases —
// merges to byte-identical vectors, because (a) shard files are read
// in sorted filename order, (b) values are fingerprint-guarded JSON
// float64 round-trips, bit-exact by construction, and (c) a duplicate
// is verified bit-equal before being folded (and a mismatch aborts
// the merge with a *ConflictError rather than picking a winner).
//
// rec observes quarantined shards; nil means obs.Nop.
func (c *Campaign) Merge(rec obs.Recorder) (*MergeResult, error) {
	if rec == nil {
		rec = obs.Nop{}
	}
	paths, err := c.shardPaths()
	if err != nil {
		return nil, err
	}
	res := &MergeResult{
		Fingerprint: c.man.Fingerprint,
		Values:      make(map[string][]float64, len(c.man.Scopes)),
	}
	rows := make(map[string]int, len(c.man.Scopes))
	first := make(map[Unit]string) // unit → shard of first commit
	for _, s := range c.man.Scopes {
		vec := make([]float64, s.Rows)
		for i := range vec {
			vec[i] = math.NaN()
		}
		res.Values[s.Name] = vec
		rows[s.Name] = s.Rows
	}
	for _, path := range paths {
		entries, quarantine := readLedger(path, c.man.Fingerprint)
		if quarantine != "" {
			res.Quarantined = append(res.Quarantined, QuarantinedShard{Path: path, Reason: quarantine})
			rec.ShardQuarantined(path, quarantine)
		}
		for _, e := range entries {
			n, ok := rows[e.Scope]
			if !ok || e.Row < 0 || e.Row >= n {
				// Same fingerprint but impossible coordinates: not a
				// stale shard (the fingerprint guard caught those),
				// so something corrupted a line into valid JSON.
				return nil, fmt.Errorf("dist: shard %s commits %s outside the campaign manifest", path, e.Unit)
			}
			vec := res.Values[e.Scope]
			if prev := vec[e.Row]; !math.IsNaN(prev) {
				res.Duplicates++
				if math.Float64bits(prev) != math.Float64bits(e.Value) {
					return nil, &ConflictError{
						Unit: e.Unit, A: prev, B: e.Value,
						ShardA: first[e.Unit], ShardB: path,
					}
				}
				continue
			}
			vec[e.Row] = e.Value
			first[e.Unit] = path
			res.Committed++
		}
	}
	for _, u := range c.man.Units() {
		if math.IsNaN(res.Values[u.Scope][u.Row]) {
			res.Missing = append(res.Missing, u)
		}
	}
	sort.Slice(res.Quarantined, func(i, j int) bool { return res.Quarantined[i].Path < res.Quarantined[j].Path })
	return res, nil
}
