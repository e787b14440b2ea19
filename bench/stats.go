package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"time"

	"pbsim/internal/perfbench"
)

// median is the middle of xs (the mean of the two middle values for an
// even count), as perfbench summarizes every committed benchmark
// trajectory; NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return perfbench.Summarize(perfbench.Key{}, xs).Median
}

// quantile returns the i/n quantile of xs by the "exclusive" method of
// Python's statistics.quantiles, the method the benchmark's consumers
// use for quartiles, so spreads computed here match theirs exactly.
// quantile(xs, 1, 4) and quantile(xs, 3, 4) are the quartiles;
// quantile(xs, 99, 100) is the 99th percentile. NaN when xs is empty.
func quantile(xs []float64, i, n int) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN()
	case 1:
		return s[0]
	}
	m := len(s) + 1
	j := i * m / n
	if j < 1 {
		j = 1
	} else if j > len(s)-1 {
		j = len(s) - 1
	}
	delta := i*m - j*n
	return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
}

// iqr is the distance between the first and third quartiles of xs.
func iqr(xs []float64) float64 {
	return quantile(xs, 3, 4) - quantile(xs, 1, 4)
}

// durationsMs converts durations to milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// mixSeed folds the benchmark seed into a workload's stream seed with
// the splitmix64 finalizer. The finalizer maps 0 to 0, so seed 0 keeps
// every workload's canonical stream, the one the repository's tables
// and the committed golden data are computed from.
func mixSeed(seed, base uint64) uint64 {
	x := seed
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return base ^ x
}

// digestResponses is the FNV-64a digest of the responses rendered with
// %.17g (which round-trips every float64), one per line in (benchmark,
// row) order: equal digests mean bit-identical responses.
func digestResponses(responses [][]float64) string {
	var b strings.Builder
	for _, vec := range responses {
		for _, v := range vec {
			fmt.Fprintf(&b, "%.17g\n", v)
		}
	}
	return fnvDigest(b.String())
}

// fnvDigest is the hex FNV-64a hash of text.
func fnvDigest(text string) string {
	h := fnv.New64a()
	fmt.Fprint(h, text)
	return fmt.Sprintf("%016x", h.Sum64())
}

// rankPermutation turns a Table 9 order (factor indices by ascending
// rank sum) into ranks indexed by factor, the form Spearman compares.
func rankPermutation(order []int) []int {
	ranks := make([]int, len(order))
	for pos, f := range order {
		ranks[f] = pos + 1
	}
	return ranks
}
