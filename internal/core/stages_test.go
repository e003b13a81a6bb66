package core

import (
	"testing"
	"time"

	"repro/internal/features"
	"repro/internal/obs"
)

// swapOutObs detaches any process-wide obs registry for the duration of a
// test so stage-stats gating is deterministic.
func swapOutObs(t *testing.T) {
	t.Helper()
	prev := obs.Swap(nil)
	t.Cleanup(func() { obs.Swap(prev) })
}

// swapInObs installs a fresh obs registry for the duration of a test, the
// way jsdetect -metrics does, and returns it.
func swapInObs(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	prev := obs.Swap(reg)
	t.Cleanup(func() { obs.Swap(prev) })
	return reg
}

func TestScanStagesOffByDefault(t *testing.T) {
	swapOutObs(t)
	s := tinyScanner(t, ScanOptions{Workers: 2}, features.Options{NGramDims: 128})
	_, stats := s.ScanBatch(scanInputs(4))
	if stats.Stages != nil {
		t.Fatalf("Stages collected without obs: %+v", stats.Stages)
	}
}

// TestScanStageBreakdown is the acceptance check behind jsdetect -metrics:
// with one worker, the per-stage durations must account for roughly the
// whole scan wall time (everything outside the stages is pool scheduling
// and emission, which is small next to parsing).
func TestScanStageBreakdown(t *testing.T) {
	swapInObs(t)
	s := tinyScanner(t, ScanOptions{Workers: 1, Explain: true}, features.Options{NGramDims: 256})
	inputs := scanInputs(24)
	_, stats := s.ScanBatch(inputs)

	if len(stats.Stages) != numStages {
		t.Fatalf("got %d stages %v, want all %d", len(stats.Stages), stats.Stages, numStages)
	}
	wantOrder := []string{"parse", "flow", "rules", "features", "infer"}
	for i, st := range stats.Stages {
		if st.Stage != wantOrder[i] {
			t.Fatalf("stage %d = %q, want %q (breakdown %v)", i, st.Stage, wantOrder[i], stats.Stages)
		}
		if st.Files != int64(len(inputs)) {
			t.Errorf("stage %s saw %d files, want %d", st.Stage, st.Files, len(inputs))
		}
		if st.Bytes != stats.Bytes {
			t.Errorf("stage %s saw %d bytes, want %d", st.Stage, st.Bytes, stats.Bytes)
		}
		if st.Duration < 0 {
			t.Errorf("stage %s has negative duration %v", st.Stage, st.Duration)
		}
	}

	total := stats.StageTotal()
	if total > stats.Duration {
		t.Fatalf("stage total %v exceeds wall time %v with one worker", total, stats.Duration)
	}
	// The stages are the scan: with one worker at least half the wall time
	// must be attributed (generous slack for scheduling noise on loaded
	// machines).
	if total < stats.Duration/2 {
		t.Fatalf("stage total %v accounts for under half the wall time %v", total, stats.Duration)
	}
}

func TestScanStagesSkipAfterParseFailure(t *testing.T) {
	swapInObs(t)
	s := tinyScanner(t, ScanOptions{Workers: 1}, features.Options{NGramDims: 128})
	inputs := []Input{
		{Path: "ok.js", Source: "var x = 1;"},
		{Path: "broken.js", Source: "function ("},
	}
	_, stats := s.ScanBatch(inputs)
	if stats.ParseFailures != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	byName := map[string]StageStats{}
	for _, st := range stats.Stages {
		byName[st.Stage] = st
	}
	if byName["parse"].Files != 2 {
		t.Fatalf("parse stage saw %d files, want 2", byName["parse"].Files)
	}
	// The broken file must not reach the later stages; without Explain the
	// rules stage runs for no file at all and is absent from the breakdown.
	if got := byName["flow"].Files; got != 1 {
		t.Fatalf("flow stage saw %d files, want 1", got)
	}
	if _, ok := byName["rules"]; ok {
		t.Fatalf("rules stage present without Explain: %+v", stats.Stages)
	}
	if got := byName["infer"].Files; got != 1 {
		t.Fatalf("infer stage saw %d files, want 1", got)
	}
}

// TestScanStagesCollectedUnderObs checks the trigger: an enabled
// process-wide registry turns stage collection on and receives the per-file
// histograms.
func TestScanStagesCollectedUnderObs(t *testing.T) {
	swapOutObs(t)
	reg := obs.Enable()
	defer obs.Disable()
	s := tinyScanner(t, ScanOptions{Workers: 2}, features.Options{NGramDims: 128})
	inputs := scanInputs(5)
	_, stats := s.ScanBatch(inputs)
	if stats.Stages == nil {
		t.Fatal("Stages not collected while obs registry enabled")
	}
	snap := reg.Histogram("scan.stage.parse", obs.UnitNanoseconds).Snapshot()
	if snap.Count != int64(len(inputs)) {
		t.Fatalf("scan.stage.parse histogram count = %d, want %d", snap.Count, len(inputs))
	}
	if got := reg.Counter("scan.files").Value(); got != int64(len(inputs)) {
		t.Fatalf("scan.files counter = %d, want %d", got, len(inputs))
	}
}

func TestStageTotalSums(t *testing.T) {
	stats := ScanStats{Stages: []StageStats{
		{Stage: "parse", Duration: 3 * time.Millisecond},
		{Stage: "flow", Duration: 2 * time.Millisecond},
	}}
	if got := stats.StageTotal(); got != 5*time.Millisecond {
		t.Fatalf("StageTotal = %v, want 5ms", got)
	}
	if got := (ScanStats{}).StageTotal(); got != 0 {
		t.Fatalf("empty StageTotal = %v", got)
	}
}

// TestStageMetricNamesLockstep keeps the spelled-out obs histogram names in
// lockstep with the stage-name table: the names are literals (so the jslint
// obs-literal analyzer can check them against the manifest) and this test is
// what makes adding a stage without updating both tables fail.
func TestStageMetricNamesLockstep(t *testing.T) {
	for i, name := range stageNames {
		want := "scan.stage." + name
		if stageMetricNames[i] != want {
			t.Errorf("stageMetricNames[%d] = %q, want %q", i, stageMetricNames[i], want)
		}
		if !obs.KnownMetric(stageMetricNames[i]) {
			t.Errorf("stage metric %q is not in the internal/obs/metrics.go manifest", stageMetricNames[i])
		}
	}
}
