package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// leaseRecord is the JSON body of one lease file. Times are unix
// nanoseconds from the claimer's clock; the protocol tolerates modest
// clock skew because expiry only gates duplicate-work suppression,
// never correctness (see the package comment).
type leaseRecord struct {
	Owner    string `json:"owner"`
	Acquired int64  `json:"acquired_unix_nano"`
	Expires  int64  `json:"expires_unix_nano"`
}

// leasePath returns the lease file for one unit. Scope names are
// validated path-safe by Manifest.validate.
func leasePath(dir string, u Unit) string {
	return filepath.Join(dir, leaseDir, fmt.Sprintf("%s.%d.lease", u.Scope, u.Row))
}

// claimResult says how a claim attempt ended.
type claimResult int

const (
	claimWon    claimResult = iota // we hold the lease
	claimStolen                    // we hold it, reclaimed from an expired owner
	claimHeld                      // someone else holds an unexpired lease
)

// claim tries to acquire the lease on u for owner until now+ttl.
//
// The fast path is the atomic one: O_CREATE|O_EXCL arbitrates exactly
// one winner among racing claimants. When the file already exists the
// slow path reads it; an unexpired lease loses the claim, and so does
// an unreadable one whose mtime is within ttl of now (its writer is
// between create and write). An expired lease, or an unreadable one
// older than ttl (its writer died mid-write), enters the steal
// protocol: rename the carcass to a unique tombstone, which
// exactly one stealer can win because rename removes the source, then
// re-claim through the same O_EXCL gate as everyone else. A stealer
// that dies between rename and re-claim leaves the unit unleased — any
// worker claims it normally on its next pass — and at worst an orphan
// tombstone file, which blocks nothing.
func claim(dir string, u Unit, owner string, ttl time.Duration, now time.Time) (claimResult, error) {
	path := leasePath(dir, u)
	stole := false
	for {
		err := writeLeaseExcl(path, owner, ttl, now)
		if err == nil {
			if stole {
				return claimStolen, nil
			}
			return claimWon, nil
		}
		if !errors.Is(err, os.ErrExist) {
			return claimHeld, err
		}
		rec, rerr := readLease(path)
		if rerr == nil && now.UnixNano() < rec.Expires {
			return claimHeld, nil // live lease
		}
		if rerr != nil && errors.Is(rerr, os.ErrNotExist) {
			continue // released or stolen between our create and read; retry the fast path
		}
		if rerr != nil && leaseYoung(path, ttl, now) {
			// writeLeaseExcl creates the file before writing it, so an
			// unreadable lease this young is most likely a live claim
			// caught mid-write, not a dead writer's carcass.
			return claimHeld, nil
		}
		// Expired or unreadable: steal. The tombstone name is unique
		// per (owner, attempt time), so concurrent stealers race the
		// rename and exactly one proceeds.
		tomb := fmt.Sprintf("%s.tomb.%s.%d", path, owner, now.UnixNano())
		if err := os.Rename(path, tomb); err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue // another stealer won the rename; retry the fast path
			}
			return claimHeld, fmt.Errorf("dist: steal lease %s: %w", u, err)
		}
		os.Remove(tomb) //pbcheck:ignore errdiscard tombstone cleanup is best-effort; an orphan tombstone blocks nothing
		stole = true
		// Loop: re-claim through the O_EXCL gate. We may fairly lose
		// to a non-stealing claimant that saw the path free.
	}
}

// leaseYoung reports whether the lease file at path was modified
// within ttl of now, in either direction: clocks of workers sharing a
// directory may be skewed.
func leaseYoung(path string, ttl time.Duration, now time.Time) bool {
	fi, err := os.Stat(path)
	if err != nil {
		return false
	}
	age := now.Sub(fi.ModTime())
	return -ttl < age && age < ttl
}

// writeLeaseExcl creates the lease file atomically, failing with
// os.ErrExist when another worker holds it.
func writeLeaseExcl(path, owner string, ttl time.Duration, now time.Time) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	rec := leaseRecord{Owner: owner, Acquired: now.UnixNano(), Expires: now.Add(ttl).UnixNano()}
	data, err := json.Marshal(rec)
	if err != nil {
		f.Close() //pbcheck:ignore errdiscard error-path cleanup; the marshal error is what matters
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close() //pbcheck:ignore errdiscard error-path cleanup; the write error is what matters
		return err
	}
	return f.Close()
}

// readLease parses a lease file. A missing file returns
// os.ErrNotExist; a torn or corrupt file returns a generic error the
// caller treats as stealable.
func readLease(path string) (leaseRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return leaseRecord{}, err
	}
	var rec leaseRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("dist: torn lease %s: %w", path, err)
	}
	return rec, nil
}

// renew extends the lease on u to now+ttl if owner still holds it,
// atomically (write temp + rename) so readers never observe a torn
// lease from a healthy worker. It reports false when the lease was
// lost — stolen after an expiry, or the file vanished — in which case
// the worker keeps executing anyway: its eventual commit is safe
// because merge proves duplicate values identical.
//
// The ownership check then rename is not atomic; a steal landing in
// that window means two workers briefly believe they hold the unit.
// That is the documented double-execution case, harmless by design —
// the alternative (fcntl range locks) does not survive all shared
// filesystems this layer targets.
func renew(dir string, u Unit, owner string, ttl time.Duration, now time.Time) (bool, error) {
	path := leasePath(dir, u)
	rec, err := readLease(path)
	if err != nil || rec.Owner != owner {
		return false, nil // lost: vanished, torn, or stolen
	}
	tmp, err := os.CreateTemp(filepath.Join(dir, leaseDir), ".renew-*")
	if err != nil {
		return false, fmt.Errorf("dist: renew lease %s: %w", u, err)
	}
	tmpName := tmp.Name()
	rec.Expires = now.Add(ttl).UnixNano()
	data, _ := json.Marshal(rec) //pbcheck:ignore errdiscard marshaling a struct of two ints and a string cannot fail
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()        //pbcheck:ignore errdiscard error-path cleanup; the write error is what matters
		os.Remove(tmpName) //pbcheck:ignore errdiscard best-effort temp cleanup on the write-error path
		return false, fmt.Errorf("dist: renew lease %s: %w", u, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName) //pbcheck:ignore errdiscard best-effort temp cleanup on the close-error path
		return false, fmt.Errorf("dist: renew lease %s: %w", u, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName) //pbcheck:ignore errdiscard best-effort temp cleanup; the rename already failed
		return false, fmt.Errorf("dist: renew lease %s: %w", u, err)
	}
	return true, nil
}

// release removes the lease on u if owner still holds it. Losing the
// ownership check (the lease was stolen after expiring) leaves the
// stealer's lease untouched.
func release(dir string, u Unit, owner string) {
	path := leasePath(dir, u)
	rec, err := readLease(path)
	if err != nil || rec.Owner != owner {
		return
	}
	os.Remove(path) //pbcheck:ignore errdiscard best-effort release; an unremoved lease simply expires
}
