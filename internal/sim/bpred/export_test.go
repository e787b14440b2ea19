package bpred

// Depth returns the current number of valid entries.
func (r *RAS) Depth() int { return r.count }
