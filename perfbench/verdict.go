package main

import (
	"math"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/service"
	"repro/internal/transform"
)

// verdictKey fingerprints everything a verdict reports — the level 1
// probabilities, every level 2 probability, the bypass flag and failure —
// by exact float64 bits, so two verdicts agree only when they are
// bit-identical.
type verdictKey uint64

type verdictHash struct{ h uint64 }

func newVerdictHash() verdictHash { return verdictHash{h: 14695981039346656037} }

func (v *verdictHash) word(x uint64) {
	for i := 0; i < 8; i++ {
		v.h ^= x & 0xff
		v.h *= 1099511628211
		x >>= 8
	}
}

func (v *verdictHash) float(f float64) { v.word(math.Float64bits(f)) }

func (v *verdictHash) flag(b bool) {
	if b {
		v.word(1)
	} else {
		v.word(0)
	}
}

var level2Names = core.Level2Labels()

// keyOfResult fingerprints a scanner verdict.
func keyOfResult(r *core.FileResult) verdictKey {
	v := newVerdictHash()
	v.flag(r.Err != nil)
	v.flag(r.Bypassed)
	v.float(r.Level1.Regular)
	v.float(r.Level1.Minified)
	v.float(r.Level1.Obfuscated)
	v.flag(r.Level2 != nil)
	if r.Level2 != nil {
		probs := make(map[transform.Technique]float64, len(r.Level2.Ranked))
		for _, p := range r.Level2.Ranked {
			probs[p.Technique] = p.Probability
		}
		for _, t := range transform.Techniques {
			v.float(probs[t])
		}
	}
	return verdictKey(v.h)
}

// keyOfReport fingerprints a verdict as the daemon rendered it over HTTP.
func keyOfReport(r *service.Report) verdictKey {
	v := newVerdictHash()
	v.flag(r.Error != "")
	v.flag(r.Bypassed)
	v.float(r.Regular)
	v.float(r.Minified)
	v.float(r.Obfuscated)
	v.flag(r.Probabilities != nil)
	if r.Probabilities != nil {
		for _, name := range level2Names {
			v.float(r.Probabilities[name])
		}
	}
	return verdictKey(v.h)
}

// Quality scores verdicts against the generator's ground truth.
type Quality struct {
	Files      int
	L1Correct  int
	TP, FP, FN int
}

// add scores one verdict: level 1 is correct when both the minified and the
// obfuscated decisions match the labels; level 2 counts the reported top-k
// techniques (the paper's 10% floor) against the effective ground truth on
// transformed files.
func (q *Quality) add(f *corpus.File, r *core.FileResult) {
	q.Files++
	if r.Err == nil && r.Level1.IsMinified() == f.Minified() && r.Level1.IsObfuscated() == f.Obfuscated() {
		q.L1Correct++
	}
	if !f.Transformed() {
		return
	}
	truth := map[transform.Technique]bool{}
	for _, t := range core.EffectiveTechniques(f.Techniques) {
		truth[t] = true
	}
	pred := map[transform.Technique]bool{}
	if r.Level2 != nil {
		for _, p := range r.Level2.TopK(service.DefaultTopK, core.DefaultThreshold) {
			pred[p.Technique] = true
		}
	}
	for t := range pred {
		if truth[t] {
			q.TP++
		} else {
			q.FP++
		}
	}
	for t := range truth {
		if !pred[t] {
			q.FN++
		}
	}
}

func (q Quality) L1Accuracy() float64 {
	if q.Files == 0 {
		return 0
	}
	return float64(q.L1Correct) / float64(q.Files)
}

func (q Quality) L2F1() float64 {
	d := 2*q.TP + q.FP + q.FN
	if d == 0 {
		return 0
	}
	return float64(2*q.TP) / float64(d)
}
