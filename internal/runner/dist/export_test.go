package dist

import "pbsim/internal/obs"

// MergeDir is the one-call form: open the campaign at dir and merge
// its shards.
func MergeDir(dir string, rec obs.Recorder) (*MergeResult, error) {
	c, err := Open(dir)
	if err != nil {
		return nil, err
	}
	return c.Merge(rec)
}
