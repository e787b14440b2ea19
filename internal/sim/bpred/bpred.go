// Package bpred models the branch-prediction hardware of Table 6 of
// the paper: the two-level adaptive direction predictor (the
// simulator models Table 6's other value, Perfect, by predicting
// nothing), a set-associative branch target buffer, and a return
// address stack. The "speculative branch update" parameter (update
// history in decode vs in commit) is realized by the pipeline, which
// chooses when to call Update.
package bpred

import "fmt"

// satNext is the two-bit saturating-counter transition table:
// satNext[counter][outcome] with outcome 0 = not taken, 1 = taken.
// Table-driven updates keep the predictor train step branch-free,
// which matters because Update runs once per conditional branch in
// the simulator's hottest loop.
var satNext = [4][2]uint8{
	{0, 1}, // strongly not-taken
	{0, 2}, // weakly not-taken
	{1, 3}, // weakly taken
	{2, 3}, // strongly taken
}

// TwoLevel is a two-level adaptive predictor with per-branch (local)
// history, the PAg organization of Yeh and Patt: a branch-history
// table indexed by PC holds each branch's recent outcomes, and the
// history pattern XOR-folded with the PC indexes a shared table of
// two-bit saturating counters. Local history learns periodic
// per-branch behaviour (loop trip counts, alternating branches) that
// no counter-only predictor can capture.
type TwoLevel struct {
	histBits uint
	histMask uint64
	bht      []uint64 // per-branch local histories
	bhtMask  uint64
	mask     uint64
	pht      []uint8
}

// NewTwoLevel builds a two-level predictor with the given local
// history length and pattern-history-table size (1 << tableBits
// counters). The branch-history table has 1024 entries.
func NewTwoLevel(histBits, tableBits uint) (*TwoLevel, error) {
	if tableBits < 1 || tableBits > 24 {
		return nil, fmt.Errorf("bpred: tableBits %d out of range", tableBits)
	}
	if histBits > tableBits {
		histBits = tableBits
	}
	const bhtEntries = 1024
	p := &TwoLevel{
		histBits: histBits,
		histMask: (1 << histBits) - 1,
		bht:      make([]uint64, bhtEntries),
		bhtMask:  bhtEntries - 1,
		mask:     (1 << tableBits) - 1,
		pht:      make([]uint8, 1<<tableBits),
	}
	// Weakly taken initial state.
	for i := range p.pht {
		p.pht[i] = 2
	}
	return p, nil
}

func (p *TwoLevel) index(pc uint64) uint64 {
	hist := p.bht[(pc>>2)&p.bhtMask]
	return (hist ^ (pc >> 2) ^ (pc >> 12)) & p.mask
}

// Predict returns the predicted direction for the branch at pc.
//
//pbcheck:hotpath
func (p *TwoLevel) Predict(pc uint64) bool {
	return p.pht[p.index(pc)] >= 2
}

// Update trains the predictor with the branch's actual outcome: the
// counter moves toward it, and it shifts into the branch's local
// history. The pipeline calls it at decode time (speculative update)
// or at commit time, per the speculative-branch-update parameter.
//
//pbcheck:hotpath
func (p *TwoLevel) Update(pc uint64, taken bool) {
	bit := boolBit(taken)
	idx := p.index(pc)
	p.pht[idx] = satNext[p.pht[idx]&3][bit]
	b := (pc >> 2) & p.bhtMask
	p.bht[b] = ((p.bht[b] << 1) | bit) & p.histMask
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
