// Package obs is the observability layer of the PB campaign engine:
// lock-free counters, gauges, and latency histograms; a Recorder
// interface the fault-tolerant runner publishes its lifecycle events
// through (with an allocation-free no-op default, Nop); a JSONL event
// sink keyed by the same experiment fingerprint the checkpoint uses; an
// end-of-run summary table (throughput, latency quantiles, failure and
// panic totals, resumed-vs-simulated accounting); and an opt-in debug
// HTTP server exposing expvar and pprof.
//
// The package is stdlib-only and imports nothing else from this
// module, so every layer (runner, experiment, commands, examples) can
// depend on it without cycles. Sampling-rigor papers get their
// credibility from knowing exactly how much was simulated and at what
// cost; this package gives the engine the same self-accounting.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero
// value is ready to use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the value to stay monotonic;
// this is not enforced).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic up/down value that also tracks its high-water
// mark (e.g. peak concurrently busy workers). The zero value is ready
// to use.
type Gauge struct{ cur, peak atomic.Int64 }

// Add moves the gauge by delta and returns the new value, updating
// the peak if the new value exceeds it.
func (g *Gauge) Add(delta int64) int64 {
	v := g.cur.Add(delta)
	for {
		p := g.peak.Load()
		if v <= p || g.peak.CompareAndSwap(p, v) {
			return v
		}
	}
}

// Value returns the current gauge level.
func (g *Gauge) Value() int64 { return g.cur.Load() }

// Peak returns the highest level the gauge ever reached.
func (g *Gauge) Peak() int64 { return g.peak.Load() }

// histogram geometry: bucket i covers durations in
// (1µs·2^(i-1), 1µs·2^i], bucket 0 covers (0, 1µs], and one overflow
// bucket catches everything past ~134s. Fixed buckets keep Observe
// allocation-free and wait-free.
const (
	histBuckets   = 28
	histBucketMin = time.Microsecond
)

// Histogram is a fixed-bucket, power-of-two latency histogram safe
// for concurrent use. The zero value is ready to use.
type Histogram struct {
	counts [histBuckets + 1]atomic.Int64
	n      atomic.Int64
	sum    atomic.Int64 // nanoseconds
	max    atomic.Int64 // nanoseconds
}

// bucketIndex maps a duration to its bucket (histBuckets = overflow).
func bucketIndex(d time.Duration) int {
	if d <= histBucketMin {
		return 0
	}
	// Smallest i with 1µs·2^i >= d, via ceil(d/1µs).
	i := bits.Len64(uint64((d+histBucketMin-1)/histBucketMin) - 1)
	if i >= histBuckets {
		return histBuckets
	}
	return i
}

// bucketBound returns the inclusive upper bound of bucket i.
func bucketBound(i int) time.Duration { return histBucketMin << i }

// Observe records one duration. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketIndex(d)].Add(1)
	h.n.Add(1)
	h.sum.Add(int64(d))
	for {
		m := h.max.Load()
		if int64(d) <= m || h.max.CompareAndSwap(m, int64(d)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Max returns the largest observed duration (exact, not bucketed).
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Mean returns the arithmetic mean of the observations (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Quantile estimates the p-quantile (0 < p <= 1) by linear
// interpolation inside the bucket containing the target rank. The
// estimate is capped at the exact observed maximum; an empty
// histogram reports 0.
func (h *Histogram) Quantile(p float64) time.Duration {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := p * float64(n)
	var cum float64
	for i := 0; i <= histBuckets; i++ {
		raw := h.counts[i].Load()
		if raw == 0 {
			continue
		}
		c := float64(raw)
		if cum+c >= target {
			lo := time.Duration(0)
			if i > 0 {
				lo = bucketBound(i - 1)
			}
			hi := bucketBound(i)
			if i == histBuckets || hi > h.Max() {
				hi = h.Max()
			}
			if hi < lo {
				hi = lo
			}
			frac := (target - cum) / c
			est := lo + time.Duration(frac*float64(hi-lo))
			if max := h.Max(); est > max {
				est = max
			}
			return est
		}
		cum += c
	}
	return h.Max()
}
