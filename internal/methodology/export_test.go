package methodology

import (
	"pbsim/internal/cluster"
	"pbsim/internal/pb"
)

// Classification is the Section 4.2 flow: benchmarks grouped by the
// similarity of their parameter-rank vectors.
type Classification struct {
	Matrix          *cluster.Matrix
	Groups          [][]string
	Representatives []string
}

// Classify builds the distance matrix from a suite's rank rows and
// groups benchmarks under the given similarity threshold.
func Classify(suite *pb.Suite, threshold float64) (*Classification, error) {
	m, err := cluster.DistanceMatrix(suite.Benchmarks, suite.RankRows)
	if err != nil {
		return nil, err
	}
	groups := cluster.ThresholdGroups(m, threshold)
	reps := cluster.Representatives(m, groups)
	c := &Classification{
		Matrix: m,
		Groups: cluster.GroupNames(m, groups),
	}
	for _, r := range reps {
		c.Representatives = append(c.Representatives, m.Names[r])
	}
	return c, nil
}

// TopKStable reports whether the identity of the top k factors is
// invariant across all leave-one-out orderings: every factor whose
// full-suite position is within k stays within k + slack.
func (r *StabilityReport) TopKStable(k, slack int) bool {
	for _, fs := range r.Factors {
		if fs.FullPosition <= k && fs.MaxPosition > k+slack {
			return false
		}
	}
	return true
}
