package pb

// RankShift reports, per factor, after[j]-before[j] of the
// sum-of-ranks: the paper's Section 4.3 measure of how an enhancement
// changes each parameter's overall significance. Positive shifts mean
// the factor lost significance (its sum grew).
func RankShift(before, after []int) []int {
	n := len(before)
	if len(after) < n {
		n = len(after)
	}
	shift := make([]int, n)
	for j := 0; j < n; j++ {
		shift[j] = after[j] - before[j]
	}
	return shift
}
