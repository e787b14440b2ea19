package stats

import "fmt"

// OneAtATimeResult holds a classical single-parameter sensitivity
// analysis: a base configuration plus one run per parameter with only
// that parameter changed.
type OneAtATimeResult struct {
	// Base is the response of the all-base configuration.
	Base float64
	// Responses[j] is the response with parameter j flipped.
	Responses []float64
	// Deltas[j] = Responses[j] - Base, the apparent effect of
	// parameter j at this particular base point.
	Deltas []float64
}

// OneAtATime runs the N+1-simulation design of the paper's Table 1:
// evaluate the base point, then flip one factor at a time. baseLevels
// gives the level of every factor in the base configuration; the
// response receives a full level vector per run. A failed run stops
// the design: its error is returned, naming the run (0 is the base
// point, j+1 flips factor j), and no partial result.
//
// This design is implemented as the straw man it is: its deltas are
// valid only at the chosen base point, it averages over nothing, and
// it cannot detect interactions (see the package tests, which
// construct a response where one-at-a-time reports zero effect for a
// factor a PB design correctly flags).
func OneAtATime(baseLevels []int8, response func([]int8) (float64, error)) (*OneAtATimeResult, error) {
	n := len(baseLevels)
	if n == 0 {
		return nil, fmt.Errorf("stats: one-at-a-time needs at least one factor")
	}
	for j, lv := range baseLevels {
		if lv != 1 && lv != -1 {
			return nil, fmt.Errorf("stats: base level %d of factor %d is not +1/-1", lv, j)
		}
	}
	res := &OneAtATimeResult{
		Responses: make([]float64, n),
		Deltas:    make([]float64, n),
	}
	work := make([]int8, n)
	copy(work, baseLevels)
	var err error
	if res.Base, err = response(work); err != nil {
		return nil, fmt.Errorf("stats: one-at-a-time run 0: %w", err)
	}
	for j := 0; j < n; j++ {
		copy(work, baseLevels)
		work[j] = -work[j]
		if res.Responses[j], err = response(work); err != nil {
			return nil, fmt.Errorf("stats: one-at-a-time run %d: %w", j+1, err)
		}
		res.Deltas[j] = res.Responses[j] - res.Base
	}
	return res, nil
}

// Runs returns the number of simulations the design consumed: N+1.
func (r *OneAtATimeResult) Runs() int { return len(r.Responses) + 1 }
