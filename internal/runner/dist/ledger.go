package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// ledgerRecord is one committed unit: the fingerprint guard, scope,
// row, the value (encoding/json prints the shortest round-tripping
// representation, so a reloaded value is bit-identical), and the
// committing worker, for forensics on stolen leases.
type ledgerRecord struct {
	FP     string  `json:"fp"`
	Scope  string  `json:"scope"`
	Row    int     `json:"row"`
	Value  float64 `json:"value"`
	Worker string  `json:"worker,omitempty"`
}

// Ledger is one worker's append-only shard: shards/<worker>.jsonl
// inside the campaign directory. Every commit is a single flushed
// write of one line, so the only loss mode a worker death can produce
// is a torn final line, which reopening truncates away (the unit was
// by definition uncommitted) and merge would skip anyway. With Sync,
// each line is also fsynced, extending the durability guarantee from
// process death to machine death.
type Ledger struct {
	mu     sync.Mutex
	f      *os.File
	path   string
	worker string
	fp     string
	sync   bool
	werr   error // first write failure; commit errors must not be forgettable
}

// openLedger opens (creating or resuming) the shard ledger for worker
// inside the campaign dir, truncating a torn final line left by a
// previous incarnation that died mid-write.
func openLedger(dir, worker, fingerprint string, syncEveryCommit bool) (*Ledger, error) {
	path := filepath.Join(dir, shardDir, worker+".jsonl")
	if err := truncateTornTail(path); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dist: open shard ledger: %w", err)
	}
	return &Ledger{f: f, path: path, worker: worker, fp: fingerprint, sync: syncEveryCommit}, nil
}

// truncateTornTail removes a trailing partial line (no terminating
// newline) so a resumed worker's appends never concatenate onto the
// torn line of its crashed predecessor, which would corrupt a
// mid-file record.
func truncateTornTail(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("dist: inspect shard ledger: %w", err)
	}
	keep := completeLines(data)
	if keep == len(data) {
		return nil
	}
	if err := os.Truncate(path, int64(keep)); err != nil {
		return fmt.Errorf("dist: truncate torn ledger tail: %w", err)
	}
	return nil
}

// completeLines returns the length of data's prefix that ends in its
// last newline: the complete lines. Whatever follows is a torn line,
// and the decoder and the truncator both cut there, so a merge never
// counts a unit that the next worker start erases.
func completeLines(data []byte) int {
	return bytes.LastIndexByte(data, '\n') + 1 // 0 when no newline at all
}

// Commit durably appends one completed unit. The line is written with
// a single write syscall on an O_APPEND descriptor, then (in Sync
// mode) fsynced. The first failure is sticky: it is returned again by
// Close so a dropped commit error cannot masquerade as a clean shard.
func (l *Ledger) Commit(scope string, row int, value float64) error {
	line, err := json.Marshal(ledgerRecord{FP: l.fp, Scope: scope, Row: row, Value: value, Worker: l.worker})
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.werr != nil {
		return l.werr
	}
	if l.f == nil {
		return fmt.Errorf("dist: commit to closed ledger %s", l.path)
	}
	if _, err := l.f.Write(append(line, '\n')); err != nil {
		l.werr = err
		return err
	}
	if l.sync {
		if err := l.f.Sync(); err != nil {
			l.werr = err
			return err
		}
	}
	return nil
}

// Path returns the shard file path.
func (l *Ledger) Path() string { return l.path }

// Close closes the shard, reporting the first deferred commit error
// before any close-time failure.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return l.werr
	}
	cerr := l.f.Close() //pbcheck:ignore errflow the deferred commit error outranks a close failure by contract; cerr is intentionally dropped when werr is set
	l.f = nil
	if l.werr != nil {
		return l.werr
	}
	return cerr
}

// LedgerEntry is one parsed shard record.
type LedgerEntry struct {
	Unit
	Value  float64
	Worker string
}

// readLedger parses one shard file, returning every intact record
// whose fingerprint matches; see parseLedger for the tolerance
// contract. An unreadable file quarantines entirely with no records.
func readLedger(path, fingerprint string) (entries []LedgerEntry, quarantine string) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Sprintf("unreadable: %v", err)
	}
	return parseLedger(data, fingerprint)
}

// parseLedger decodes shard ledger bytes. It is the one decoder of
// the format, shared by merge and by the worker's incremental tail.
// Tolerance contract:
//
//   - A final line without its newline is torn (crash mid-write) and
//     skipped silently, whether or not it happens to parse: it is the
//     line truncateTornTail removes on the next worker start.
//   - A corrupt complete line marks the file quarantined (reason
//     non-empty): something other than a clean worker death touched
//     it. Intact records are still returned — each line is
//     self-describing and fingerprint-guarded, so good lines lose
//     nothing to a bad neighbor — but the quarantine is surfaced so
//     operators know the shard needs attention.
//   - Records under a foreign fingerprint are skipped (stale shard
//     from a previous campaign in a reused directory).
func parseLedger(data []byte, fingerprint string) (entries []LedgerEntry, quarantine string) {
	data = data[:completeLines(data)]
	for lineNo := 1; len(data) > 0; lineNo++ {
		i := bytes.IndexByte(data, '\n')
		line := data[:i]
		data = data[i+1:]
		if len(line) == 0 {
			continue
		}
		var rec ledgerRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			quarantine = fmt.Sprintf("corrupt record on line %d: %v", lineNo, err)
			continue
		}
		if rec.FP != fingerprint {
			continue
		}
		entries = append(entries, LedgerEntry{
			Unit:   Unit{Scope: rec.Scope, Row: rec.Row},
			Value:  rec.Value,
			Worker: rec.Worker,
		})
	}
	return entries, quarantine
}
