// Package branch implements the branch predictors used by both cores (a
// gshare/bimodal tournament) and the measurement harness the workload
// generator uses to turn a trace's control-flow behaviour into a concrete
// misprediction rate.
package branch

import "repro/internal/xrand"

// Predictor is a tournament predictor: gshare and bimodal components with a
// chooser table, as found in cores of the A15 class the paper models.
type Predictor struct {
	history uint32
	gshare  []int8
	bimodal []int8
	chooser []int8
}

// NewPredictor builds a predictor with 2^historyBits-entry tables.
func NewPredictor(historyBits int) *Predictor {
	if historyBits <= 0 || historyBits > 20 {
		historyBits = 12
	}
	n := 1 << historyBits
	p := &Predictor{
		gshare:  make([]int8, n),
		bimodal: make([]int8, n),
		chooser: make([]int8, n),
	}
	// Weakly-taken initial state.
	for i := range p.gshare {
		p.gshare[i] = 2
		p.bimodal[i] = 2
		p.chooser[i] = 2
	}
	return p
}

func counterTaken(c int8) bool { return c >= 2 }

func bump(c int8, taken bool) int8 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// Predict returns the prediction for the branch at pc and updates all
// state with the actual outcome, returning whether the prediction was
// correct.
func (p *Predictor) Predict(pc uint64, taken bool) bool {
	mask := uint32(len(p.gshare) - 1)
	bi := uint32(pc>>2) & mask
	gi := (uint32(pc>>2) ^ p.history) & mask

	gPred := counterTaken(p.gshare[gi])
	bPred := counterTaken(p.bimodal[bi])
	var pred bool
	if counterTaken(p.chooser[bi]) {
		pred = gPred
	} else {
		pred = bPred
	}

	// Update chooser toward the component that was right (when they differ).
	if gPred != bPred {
		p.chooser[bi] = bump(p.chooser[bi], gPred == taken)
	}
	p.gshare[gi] = bump(p.gshare[gi], taken)
	p.bimodal[bi] = bump(p.bimodal[bi], taken)
	p.history = ((p.history << 1) | b2u(taken)) & mask
	return pred == taken
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Reset clears history but keeps table sizes (migration cold-start).
func (p *Predictor) Reset() {
	p.history = 0
	for i := range p.gshare {
		p.gshare[i] = 2
		p.bimodal[i] = 2
		p.chooser[i] = 2
	}
}

// Behaviour describes the control-flow character of a trace's branches; the
// workload generator feeds it to MeasureMispredictRate to obtain the
// concrete rate stored on the trace.
type Behaviour struct {
	// TakenBias is the probability a data-dependent branch is taken.
	TakenBias float64
	// Entropy in [0,1]: 0 = perfectly repeating pattern (loop back-edges),
	// 1 = coin flips with TakenBias (data-dependent branches, e.g. astar).
	Entropy float64
	// PatternLen is the period of the repeating component.
	PatternLen int
}

// MeasureMispredictRate trains a predictor on iterations of synthetic branch
// outcomes with the given behaviour and returns the steady-state
// misprediction rate. This is how "gobmk has unpredictable branches"
// becomes a number in this simulator.
func MeasureMispredictRate(b Behaviour, pc uint64, rng *xrand.Rand) float64 {
	if b.PatternLen <= 0 {
		b.PatternLen = 8
	}
	pred := NewPredictor(12)
	pattern := make([]bool, b.PatternLen)
	for i := range pattern {
		pattern[i] = rng.Bool(b.TakenBias)
	}
	const warm, measure = 2000, 8000
	wrong := 0
	for i := 0; i < warm+measure; i++ {
		var taken bool
		if rng.Bool(b.Entropy) {
			taken = rng.Bool(b.TakenBias)
		} else {
			taken = pattern[i%b.PatternLen]
		}
		ok := pred.Predict(pc, taken)
		if i >= warm && !ok {
			wrong++
		}
	}
	return float64(wrong) / float64(measure)
}
