package core

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// The scanner's per-file pipeline is a fixed sequence of stages; the stage
// accumulator breaks a scan's cost down across them so ScanStats (and
// jsdetect -metrics) can report where the time goes. Collection is off by
// default: it costs a handful of clock reads per file, which the hot path
// only pays while the obs registry is enabled.

// Stage indices, in pipeline order.
const (
	stageParse = iota
	stageFlow
	stageRules
	stageFeatures
	stageInfer
	numStages
)

// stageNames are the external names of the pipeline stages, in order.
var stageNames = [numStages]string{"parse", "flow", "rules", "features", "infer"}

// stageMetricNames are the obs histogram names of the pipeline stages, in
// order. They are spelled out as literals — not built as "scan.stage."+name
// at record time — so the full metric vocabulary is greppable and the jslint
// obs-literal analyzer can check every element against the manifest;
// TestStageMetricNamesLockstep keeps the table in lockstep with stageNames.
var stageMetricNames = [numStages]string{
	"scan.stage.parse",
	"scan.stage.flow",
	"scan.stage.rules",
	"scan.stage.features",
	"scan.stage.infer",
}

// StageStats is one pipeline stage's aggregate cost across a scan.
type StageStats struct {
	// Stage is the pipeline stage name: parse, flow, rules, features, or
	// infer.
	Stage string `json:"stage"`
	// Duration is the total time spent in the stage, summed across workers
	// (with W workers it can exceed the scan's wall-clock duration by up to
	// a factor of W).
	Duration time.Duration `json:"duration"`
	// Files is how many files passed through the stage. Stages differ: a
	// parse failure skips the rest of the pipeline, and rules only run under
	// Explain or rule features.
	Files int64 `json:"files"`
	// Bytes is the total source size that passed through the stage.
	Bytes int64 `json:"bytes"`
}

// StageTotal sums the per-stage durations of a breakdown. With one worker it
// approximates the scan's wall-clock duration (the remainder is scheduling
// and emission overhead); with W workers it approaches W times the wall
// clock on parse-bound batches.
func (s ScanStats) StageTotal() time.Duration {
	var total time.Duration
	for _, st := range s.Stages {
		total += st.Duration
	}
	return total
}

// stageAcc accumulates per-stage costs for one scan. Workers add into it
// concurrently; the scan folds it into ScanStats once the pool drains.
type stageAcc struct {
	ns    [numStages]atomic.Int64
	files [numStages]atomic.Int64
	bytes [numStages]atomic.Int64
}

// add records one file's pass through a stage, mirroring it into the obs
// registry (per-file duration histograms) when metrics are enabled.
func (a *stageAcc) add(stage int, d time.Duration, fileBytes int) {
	a.ns[stage].Add(int64(d))
	a.files[stage].Add(1)
	a.bytes[stage].Add(int64(fileBytes))
	obs.ObserveDuration(stageMetricNames[stage], d)
}

// stats folds the accumulator into the exported per-stage breakdown, in
// pipeline order, skipping stages no file reached.
func (a *stageAcc) stats() []StageStats {
	out := make([]StageStats, 0, numStages)
	for i := 0; i < numStages; i++ {
		files := a.files[i].Load()
		if files == 0 {
			continue
		}
		out = append(out, StageStats{
			Stage:    stageNames[i],
			Duration: time.Duration(a.ns[i].Load()),
			Files:    files,
			Bytes:    a.bytes[i].Load(),
		})
	}
	return out
}

// stageTimer measures the lap times between pipeline stages of one file.
// The zero value (nil accumulator) is disabled and records nothing.
type stageTimer struct {
	acc   *stageAcc
	bytes int
	last  time.Time
}

func newStageTimer(acc *stageAcc, fileBytes int) stageTimer {
	t := stageTimer{acc: acc, bytes: fileBytes}
	if acc != nil {
		t.last = time.Now()
	}
	return t
}

// tick closes the current stage: the time since the previous tick (or the
// timer's start) is attributed to it.
func (t *stageTimer) tick(stage int) {
	if t.acc == nil {
		return
	}
	now := time.Now()
	t.acc.add(stage, now.Sub(t.last), t.bytes)
	t.last = now
}
