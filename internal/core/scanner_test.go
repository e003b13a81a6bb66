package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/features"
	"repro/internal/js/parser"
	"repro/internal/ml"
	"repro/internal/transform"
)

// leafChain builds a constant-output classifier chain: every forest is a
// single leaf tree that always predicts its fixed probability. Scanner tests
// only exercise the batch plumbing, so the model's answer can be canned.
func leafChain(labels []string, probs []float64) ml.MultiTask {
	forests := make([]*ml.Forest, len(labels))
	for i := range forests {
		forests[i] = &ml.Forest{Trees: []*ml.Tree{
			{Nodes: []ml.TreeNode{{Feature: 0, Left: -1, Right: -1, Prob: probs[i]}}},
		}}
	}
	return &ml.Chain{Names: append([]string(nil), labels...), Forests: forests}
}

// tinyDetector builds a detector around a constant chain.
func tinyDetector(labels []string, probs []float64, featOpts features.Options) *Detector {
	return &Detector{extractor: features.NewExtractor(featOpts), model: leafChain(labels, probs)}
}

// tinyScanner pairs constant level 1 and level 2 detectors. The level 1
// probabilities flag every file as minified, so level 2 always runs.
func tinyScanner(t *testing.T, opts ScanOptions, featOpts features.Options) *Scanner {
	t.Helper()
	l1 := tinyDetector(Level1Labels, []float64{0.1, 0.9, 0.2}, featOpts)
	l2probs := make([]float64, len(transform.Techniques))
	for i := range l2probs {
		l2probs[i] = 0.9 - 0.05*float64(i)
	}
	l2 := tinyDetector(Level2Labels(), l2probs, featOpts)
	s, err := NewScanner(l1, l2, opts)
	if err != nil {
		t.Fatalf("NewScanner: %v", err)
	}
	return s
}

func scanInputs(n int) []Input {
	inputs := make([]Input, n)
	for i := range inputs {
		inputs[i] = Input{
			Path:   fmt.Sprintf("file_%03d.js", i),
			Source: fmt.Sprintf("var a%d = %d; function f%d(x) { return x + a%d; } f%d(1);", i, i, i, i, i),
		}
	}
	return inputs
}

// TestScanBatchParseOnce is the acceptance criterion: one parse per input,
// even with Explain attached, instead of the three parses of the serial
// classify-classify-analyze path.
func TestScanBatchParseOnce(t *testing.T) {
	s := tinyScanner(t, ScanOptions{Workers: 4, Explain: true}, features.Options{NGramDims: 256})
	inputs := scanInputs(6)
	before := parser.Parses()
	results, stats := s.ScanBatch(inputs)
	delta := parser.Parses() - before
	if delta != int64(len(inputs)) {
		t.Fatalf("scan of %d files used %d parses, want exactly one each", len(inputs), delta)
	}
	if stats.Files != len(inputs) || stats.ParseFailures != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("result %d: %v", i, r.Err)
		}
		if r.Level2 == nil {
			t.Fatalf("result %d: level 2 missing for transformed verdict", i)
		}
	}
}

// TestScanBatchParseOnceWithRuleFeatures covers the layout where the
// diagnostics feed both the feature vector and the Explain output.
func TestScanBatchParseOnceWithRuleFeatures(t *testing.T) {
	s := tinyScanner(t, ScanOptions{Workers: 2, Explain: true},
		features.Options{NGramDims: 256, RuleFeatures: true})
	inputs := scanInputs(4)
	before := parser.Parses()
	s.ScanBatch(inputs)
	if delta := parser.Parses() - before; delta != int64(len(inputs)) {
		t.Fatalf("rule-features scan used %d parses for %d files", delta, len(inputs))
	}
}

// TestScanForceLevel2 pins the ForceLevel2 contract: every parsed file gets
// a technique ranking, even ones level 1 calls regular, while the default
// keeps level 2 gated on the transformed verdict.
func TestScanForceLevel2(t *testing.T) {
	featOpts := features.Options{NGramDims: 256}
	// A level 1 that calls everything regular: level 2 only runs when forced.
	l1 := tinyDetector(Level1Labels, []float64{0.9, 0.1, 0.1}, featOpts)
	l2probs := make([]float64, len(transform.Techniques))
	for i := range l2probs {
		l2probs[i] = 0.3
	}
	l2 := tinyDetector(Level2Labels(), l2probs, featOpts)

	plain, err := NewScanner(l1, l2, ScanOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	forced, err := NewScanner(l1, l2, ScanOptions{Workers: 1, ForceLevel2: true})
	if err != nil {
		t.Fatal(err)
	}

	inputs := scanInputs(3)
	inputs[1] = Input{Path: "broken.js", Source: "function ( {{{"}
	got, _ := plain.ScanBatch(inputs)
	for i, r := range got {
		if r.Level2 != nil {
			t.Errorf("default scan attached level 2 to regular file %d", i)
		}
	}
	got, _ = forced.ScanBatch(inputs)
	for i, r := range got {
		if i == 1 {
			if r.Level2 != nil {
				t.Error("forced level 2 must still skip parse failures")
			}
			continue
		}
		if r.Level2 == nil {
			t.Fatalf("forced scan missing level 2 on file %d", i)
		}
		if n := len(r.Level2.Ranked); n != len(transform.Techniques) {
			t.Fatalf("forced level 2 ranked %d techniques, want %d", n, len(transform.Techniques))
		}
	}
}

// TestScanBatchErrorIsolation checks that one unparseable file is reported
// in place without aborting or shifting the rest of the batch.
func TestScanBatchErrorIsolation(t *testing.T) {
	s := tinyScanner(t, ScanOptions{Workers: 4}, features.Options{NGramDims: 256})
	inputs := scanInputs(5)
	inputs[2] = Input{Path: "broken.js", Source: "function ( {{{"}
	results, stats := s.ScanBatch(inputs)
	for i, r := range results {
		if i == 2 {
			if r.Err == nil {
				t.Fatal("broken file must carry its parse error")
			}
			if !strings.Contains(r.Err.Error(), "parse") {
				t.Fatalf("error should name the parse failure: %v", r.Err)
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("healthy file %d failed: %v", i, r.Err)
		}
	}
	if stats.ParseFailures != 1 {
		t.Fatalf("ParseFailures = %d, want 1", stats.ParseFailures)
	}
	if stats.Transformed != 4 {
		t.Fatalf("Transformed = %d, want 4", stats.Transformed)
	}
}

// TestScanStreamOrder checks in-order delivery under a pool wider than the
// batch is deep, and that two runs produce identical results.
func TestScanStreamOrder(t *testing.T) {
	s := tinyScanner(t, ScanOptions{Workers: 8}, features.Options{NGramDims: 256})
	inputs := scanInputs(40)
	var order []int
	var paths []string
	s.ScanStream(inputs, func(i int, r FileResult) {
		order = append(order, i)
		paths = append(paths, r.Path)
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("emit order %v is not input order", order)
		}
	}
	for i := range paths {
		if paths[i] != inputs[i].Path {
			t.Fatalf("result %d has path %q, want %q", i, paths[i], inputs[i].Path)
		}
	}
	run1, stats1 := s.ScanBatch(inputs)
	run2, stats2 := s.ScanBatch(inputs)
	if !reflect.DeepEqual(run1, run2) {
		t.Fatal("two scans of the same batch differ")
	}
	if stats1.Files != stats2.Files || stats1.Transformed != stats2.Transformed {
		t.Fatalf("stats differ: %+v vs %+v", stats1, stats2)
	}
}

func TestScanBatchEmpty(t *testing.T) {
	s := tinyScanner(t, ScanOptions{}, features.Options{NGramDims: 256})
	results, stats := s.ScanBatch(nil)
	if len(results) != 0 || stats.Files != 0 {
		t.Fatalf("empty batch: %v, %+v", results, stats)
	}
}

// TestNewScannerRejectsSwappedLevels is the satellite bugfix: handing the
// level 2 model to the level 1 slot must error instead of panicking later.
func TestNewScannerRejectsSwappedLevels(t *testing.T) {
	featOpts := features.Options{NGramDims: 256}
	l1 := tinyDetector(Level1Labels, []float64{0.1, 0.9, 0.2}, featOpts)
	l2probs := make([]float64, len(transform.Techniques))
	l2 := tinyDetector(Level2Labels(), l2probs, featOpts)
	if _, err := NewScanner(l2, l1, ScanOptions{}); err == nil {
		t.Fatal("swapped detectors must be rejected")
	} else if !strings.Contains(err.Error(), "swapped") {
		t.Fatalf("error should hint at the swap: %v", err)
	}
}

func TestNewScannerRejectsMismatchedFeatureOptions(t *testing.T) {
	l1 := tinyDetector(Level1Labels, []float64{0.1, 0.9, 0.2}, features.Options{NGramDims: 256})
	l2probs := make([]float64, len(transform.Techniques))
	l2 := tinyDetector(Level2Labels(), l2probs, features.Options{NGramDims: 512})
	if _, err := NewScanner(l1, l2, ScanOptions{}); err == nil {
		t.Fatal("mismatched feature layouts must be rejected")
	} else if !strings.Contains(err.Error(), "feature options") {
		t.Fatalf("error should name the option mismatch: %v", err)
	}
}

// TestLoadRejectsFingerprintMismatch exercises the v2 model header end to
// end at the core level: each divergence is named in the error.
func TestLoadRejectsFingerprintMismatch(t *testing.T) {
	d := tinyDetector(Level1Labels, []float64{0.1, 0.9, 0.2}, features.Options{NGramDims: 512})
	save := func() *bytes.Buffer {
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	if _, err := Load(save(), features.Options{NGramDims: 256}); err == nil {
		t.Fatal("dims mismatch must fail")
	} else if !strings.Contains(err.Error(), "n-gram dims") {
		t.Fatalf("error should name the dims mismatch: %v", err)
	}
	if _, err := Load(save(), features.Options{NGramDims: 512, NGramLen: 3}); err == nil {
		t.Fatal("n-gram length mismatch must fail")
	} else if !strings.Contains(err.Error(), "length") {
		t.Fatalf("error should name the length mismatch: %v", err)
	}
	if _, err := Load(save(), features.Options{NGramDims: 512, RuleFeatures: true}); err == nil {
		t.Fatal("rule-features mismatch must fail")
	} else if !strings.Contains(err.Error(), "rule features") {
		t.Fatalf("error should name the rule-features mismatch: %v", err)
	}
	if _, err := Load(save(), features.Options{NGramDims: 512}); err != nil {
		t.Fatalf("matching options must load: %v", err)
	}
}

func TestValidateLabels(t *testing.T) {
	d := tinyDetector(Level1Labels, []float64{0.1, 0.9, 0.2}, features.Options{NGramDims: 256})
	if err := d.ValidateLabels(Level1Labels); err != nil {
		t.Fatalf("matching labels rejected: %v", err)
	}
	if err := d.ValidateLabels(Level2Labels()); err == nil {
		t.Fatal("level 2 labels must be rejected on a level 1 model")
	}
	if err := d.ValidateLabels([]string{"regular", "minified", "packed"}); err == nil {
		t.Fatal("renamed class must be rejected")
	}
}

// TestParallelTrainDeterministic checks that the worker-pool feature
// extraction inside trainDetector keeps training byte-for-byte reproducible:
// vectors land at fixed indices, so goroutine scheduling cannot reorder the
// training set.
func TestParallelTrainDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	files := corpus.RegularSet(12, rng)
	opts := Options{
		Features: features.Options{NGramDims: 128},
		Forest:   ml.ForestOptions{NumTrees: 3, Tree: ml.TreeOptions{MTry: 16}},
		Seed:     5,
	}
	save := func() []byte {
		d, err := TrainLevel1(files, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(save(), save()) {
		t.Fatal("parallel feature extraction made training nondeterministic")
	}
}

// TestParallelFor covers the pool helper's edge cases.
func TestParallelFor(t *testing.T) {
	for _, workers := range []int{0, 1, 4, 100} {
		hits := make([]int, 37)
		parallelFor(len(hits), workers, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
	parallelFor(0, 4, func(int) { t.Fatal("fn must not run for n=0") })
}

// TestScanRulesRunOncePerFile pins one rules run per scanned file for a
// RuleFeatures layout without Explain. The scanner hands the engine's
// findings to ExtractFull, which must take an empty result as final rather
// than rerun the engine. The scan inputs trigger no rule, which is the case
// that used to cost a second run.
func TestScanRulesRunOncePerFile(t *testing.T) {
	reg := swapInObs(t)
	s := tinyScanner(t, ScanOptions{Workers: 2}, features.Options{NGramDims: 128, RuleFeatures: true})
	inputs := scanInputs(5)
	results, _ := s.ScanBatch(inputs)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("result %d: %v", i, r.Err)
		}
	}
	if got := reg.Counter("analysis.runs").Value(); got != int64(len(inputs)) {
		t.Fatalf("analysis.runs = %d for %d scanned files, want one run each", got, len(inputs))
	}
}
