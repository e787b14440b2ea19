package obs

// DistRecorder is the part of Recorder that observes distributed
// campaign execution (internal/runner/dist): lease claims and steals,
// lost leases, shard-ledger commits, and quarantined shard files.
type DistRecorder interface {
	// LeaseClaimed reports one successfully acquired work-unit lease;
	// stolen marks claims that reclaimed an expired lease from a dead
	// or stalled worker.
	LeaseClaimed(scope string, row int, stolen bool)
	// LeaseLost reports a heartbeat that found its lease gone or owned
	// by someone else — the unit may be (harmlessly) double-executed.
	LeaseLost(scope string, row int)
	// CommitAppended reports one result durably appended to a shard
	// ledger by the named worker.
	CommitAppended(worker, scope string, row int)
	// ShardQuarantined reports a shard ledger that merge found corrupt
	// beyond the tolerated torn tail line.
	ShardQuarantined(path, reason string)
}

// LeaseClaimed implements DistRecorder.
func (Nop) LeaseClaimed(string, int, bool) {}

// LeaseLost implements DistRecorder.
func (Nop) LeaseLost(string, int) {}

// CommitAppended implements DistRecorder.
func (Nop) CommitAppended(string, string, int) {}

// ShardQuarantined implements DistRecorder.
func (Nop) ShardQuarantined(string, string) {}

// LeaseClaimed implements DistRecorder.
func (m multi) LeaseClaimed(scope string, row int, stolen bool) {
	for _, r := range m {
		r.LeaseClaimed(scope, row, stolen)
	}
}

// LeaseLost implements DistRecorder.
func (m multi) LeaseLost(scope string, row int) {
	for _, r := range m {
		r.LeaseLost(scope, row)
	}
}

// CommitAppended implements DistRecorder.
func (m multi) CommitAppended(worker, scope string, row int) {
	for _, r := range m {
		r.CommitAppended(worker, scope, row)
	}
}

// ShardQuarantined implements DistRecorder.
func (m multi) ShardQuarantined(path, reason string) {
	for _, r := range m {
		r.ShardQuarantined(path, reason)
	}
}

// LeaseClaimed implements DistRecorder.
func (m *Metrics) LeaseClaimed(_ string, _ int, stolen bool) {
	m.LeasesClaimed.Inc()
	if stolen {
		m.LeasesStolen.Inc()
	}
}

// LeaseLost implements DistRecorder.
func (m *Metrics) LeaseLost(string, int) { m.LeasesLost.Inc() }

// CommitAppended implements DistRecorder.
func (m *Metrics) CommitAppended(string, string, int) { m.Commits.Inc() }

// ShardQuarantined implements DistRecorder.
func (m *Metrics) ShardQuarantined(string, string) { m.ShardsQuarantined.Inc() }

// LeaseClaimed implements DistRecorder by journaling a lease_claimed
// event.
func (j *JSONL) LeaseClaimed(scope string, row int, stolen bool) {
	j.emit(map[string]any{"t": "lease_claimed", "scope": scope, "row": row, "stolen": stolen})
}

// LeaseLost implements DistRecorder.
func (j *JSONL) LeaseLost(scope string, row int) {
	j.emit(map[string]any{"t": "lease_lost", "scope": scope, "row": row})
}

// CommitAppended implements DistRecorder.
func (j *JSONL) CommitAppended(worker, scope string, row int) {
	j.emit(map[string]any{"t": "commit", "worker": worker, "scope": scope, "row": row})
}

// ShardQuarantined implements DistRecorder.
func (j *JSONL) ShardQuarantined(path, reason string) {
	j.emit(map[string]any{"t": "shard_quarantined", "path": path, "reason": reason})
}
