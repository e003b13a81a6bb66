package ml

import (
	"bufio"
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// synthGaussian builds a linearly separable two-class dataset.
func synthGaussian(rng *rand.Rand, n, dims int) ([][]float64, []bool) {
	x := make([][]float64, n)
	y := make([]bool, n)
	for i := range x {
		x[i] = make([]float64, dims)
		pos := i%2 == 0
		y[i] = pos
		center := -1.0
		if pos {
			center = 1.0
		}
		for d := range x[i] {
			x[i][d] = center*0.8 + rng.NormFloat64()
		}
	}
	return x, y
}

func TestTreeLearnsSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := synthGaussian(rng, 400, 8)
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	tree := TrainTree(x, y, idx, TreeOptions{MTry: 8}, rng)
	correct := 0
	for i := range x {
		if (tree.Predict(x[i]) > 0.5) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(x)); acc < 0.9 {
		t.Fatalf("in-sample tree accuracy = %.3f, want >= 0.9", acc)
	}
}

func TestForestGeneralizes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xTrain, yTrain := synthGaussian(rng, 600, 10)
	xTest, yTest := synthGaussian(rng, 300, 10)
	f := TrainForest(xTrain, yTrain, ForestOptions{NumTrees: 25}, rng)
	correct := 0
	for i := range xTest {
		if (f.Predict(xTest[i]) > 0.5) == yTest[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(xTest)); acc < 0.85 {
		t.Fatalf("held-out forest accuracy = %.3f, want >= 0.85", acc)
	}
}

func TestForestParallelDeterminism(t *testing.T) {
	x, y := synthGaussian(rand.New(rand.NewSource(3)), 200, 6)
	a := TrainForest(x, y, ForestOptions{NumTrees: 12, Parallel: false}, rand.New(rand.NewSource(7)))
	b := TrainForest(x, y, ForestOptions{NumTrees: 12, Parallel: true}, rand.New(rand.NewSource(7)))
	for i := range x {
		pa, pb := a.Predict(x[i]), b.Predict(x[i])
		if pa != pb {
			t.Fatalf("sequential and parallel training diverge at sample %d: %v vs %v", i, pa, pb)
		}
	}
}

// synthMultiLabel builds a dataset where label j fires when feature j > 0,
// and label 2 is correlated with label 0 (to exercise the chain).
func synthMultiLabel(rng *rand.Rand, n int) ([][]float64, [][]bool) {
	x := make([][]float64, n)
	y := make([][]bool, n)
	for i := range x {
		x[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		y[i] = []bool{x[i][0] > 0, x[i][1] > 0, x[i][0] > 0 != (x[i][2] > 1.5)}
	}
	return x, y
}

func TestChainLearnsCorrelatedLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := synthMultiLabel(rng, 800)
	labels := []string{"a", "b", "c"}
	chain, err := TrainChain(x, y, labels, ForestOptions{NumTrees: 20}, rng)
	if err != nil {
		t.Fatal(err)
	}
	xt, yt := synthMultiLabel(rng, 300)
	correct := 0
	total := 0
	for i := range xt {
		probs := chain.PredictProbs(xt[i])
		if len(probs) != 3 {
			t.Fatalf("probs = %d, want 3", len(probs))
		}
		for j := range probs {
			total++
			if (probs[j] > 0.5) == yt[i][j] {
				correct++
			}
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.8 {
		t.Fatalf("chain per-label accuracy = %.3f, want >= 0.8", acc)
	}
}

// TestChainPredictReadsLinksInPlace pins Chain.PredictProbs, which reads
// the earlier links' probabilities in place, bit for bit against the
// copy-and-append evaluation it replaced, and holds it to the one
// allocation of its result.
func TestChainPredictReadsLinksInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := synthMultiLabel(rng, 800)
	chain, err := TrainChain(x, y, []string{"a", "b", "c"}, ForestOptions{NumTrees: 20}, rng)
	if err != nil {
		t.Fatal(err)
	}
	dims := len(x[0])
	chained := false
	for _, f := range chain.Forests {
		for _, tr := range f.Trees {
			for _, n := range tr.Nodes {
				chained = chained || (n.Left >= 0 && int(n.Feature) >= dims)
			}
		}
	}
	if !chained {
		t.Fatal("no tree splits on a chained probability; the test proves nothing")
	}
	xt, _ := synthMultiLabel(rng, 300)
	for i, v := range xt {
		ext := append([]float64(nil), v...)
		got := chain.PredictProbs(v)
		for j, f := range chain.Forests {
			want := f.Predict(ext)
			if math.Float64bits(got[j]) != math.Float64bits(want) {
				t.Fatalf("sample %d link %d: prob %v, want %v", i, j, got[j], want)
			}
			ext = append(ext, want)
		}
	}
	if allocs := testing.AllocsPerRun(50, func() { chain.PredictProbs(xt[0]) }); allocs > 1 {
		t.Fatalf("PredictProbs allocates %.0f times per call, want 1", allocs)
	}
}

func TestIndependentMatchesInterface(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y := synthMultiLabel(rng, 300)
	m, err := TrainIndependent(x, y, []string{"a", "b", "c"}, ForestOptions{NumTrees: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	probs := m.PredictProbs(x[0])
	if len(probs) != 3 {
		t.Fatalf("probs = %d", len(probs))
	}
	for _, p := range probs {
		if p < 0 || p > 1 {
			t.Fatalf("probability out of range: %v", p)
		}
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := TrainChain(nil, nil, []string{"a"}, ForestOptions{}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("expected error on empty training set")
	}
	x := [][]float64{{1, 2}}
	y := [][]bool{{true}}
	if _, err := TrainChain(x, y, []string{"a", "b"}, ForestOptions{}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("expected error on label arity mismatch")
	}
}

func TestModelRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x, y := synthMultiLabel(rng, 200)
	labels := []string{"regular", "minified", "obfuscated"}
	chain, err := TrainChain(x, y, labels, ForestOptions{NumTrees: 8}, rng)
	if err != nil {
		t.Fatal(err)
	}
	fp := Fingerprint{NGramDims: 1024, NGramLen: 4, RuleFeatures: true}
	var buf bytes.Buffer
	if err := WriteModel(&buf, chain, fp); err != nil {
		t.Fatal(err)
	}
	got, gotFP, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotFP == nil || *gotFP != fp {
		t.Fatalf("fingerprint = %+v, want %+v", gotFP, fp)
	}
	if got.Labels()[2] != "obfuscated" {
		t.Fatalf("labels = %v", got.Labels())
	}
	for i := 0; i < 50; i++ {
		want := chain.PredictProbs(x[i])
		have := got.PredictProbs(x[i])
		for j := range want {
			if want[j] != have[j] {
				t.Fatalf("prediction changed after round trip: %v vs %v", want, have)
			}
		}
	}
}

// TestModelReadsLegacyV1 covers the back-compat path: a v1 file (no
// fingerprint block) must load with a nil fingerprint and identical
// predictions.
func TestModelReadsLegacyV1(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x, y := synthMultiLabel(rng, 150)
	labels := []string{"regular", "minified", "obfuscated"}
	chain, err := TrainChain(x, y, labels, ForestOptions{NumTrees: 4}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if _, err := bw.WriteString(modelMagicV1); err != nil {
		t.Fatal(err)
	}
	if err := writeModelBody(bw, chain); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	got, fp, err := ReadModel(&buf)
	if err != nil {
		t.Fatalf("read v1: %v", err)
	}
	if fp != nil {
		t.Fatalf("v1 file must carry no fingerprint, got %+v", fp)
	}
	for i := 0; i < 20; i++ {
		want := chain.PredictProbs(x[i])
		have := got.PredictProbs(x[i])
		for j := range want {
			if want[j] != have[j] {
				t.Fatalf("v1 prediction changed: %v vs %v", want, have)
			}
		}
	}
}

// TestV2FingerprintPrecedesBody pins the wire layout: a v2 file is the v1
// body with the fingerprint block spliced in after the magic.
func TestV2FingerprintPrecedesBody(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x, y := synthMultiLabel(rng, 120)
	chain, err := TrainChain(x, y, []string{"a", "b", "c"}, ForestOptions{NumTrees: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := WriteModel(&v2, chain, Fingerprint{NGramDims: 512, NGramLen: 4}); err != nil {
		t.Fatal(err)
	}
	raw := v2.Bytes()
	if string(raw[:8]) != modelMagicV2 {
		t.Fatalf("magic = %q", raw[:8])
	}
	var v1 bytes.Buffer
	bw := bufio.NewWriter(&v1)
	if _, err := bw.WriteString(modelMagicV1); err != nil {
		t.Fatal(err)
	}
	if err := writeModelBody(bw, chain); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw[8+fingerprintSize:], v1.Bytes()[8:]) {
		t.Fatal("v2 body must equal v1 body after the fingerprint block")
	}
}

func TestModelRejectsGarbage(t *testing.T) {
	if _, _, err := ReadModel(bytes.NewReader([]byte("not a model at all"))); err == nil {
		t.Fatal("expected error on bad magic")
	}
	if _, _, err := ReadModel(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected error on empty input")
	}
	truncated := []byte(modelMagicV2 + "1234")
	if _, _, err := ReadModel(bytes.NewReader(truncated)); err == nil {
		t.Fatal("expected error on truncated fingerprint")
	}
}

func TestTopK(t *testing.T) {
	probs := []float64{0.1, 0.9, 0.5, 0.7}
	got := TopK(probs, 2)
	if got[0] != 1 || got[1] != 3 {
		t.Fatalf("TopK = %v", got)
	}
	if len(TopK(probs, 10)) != 4 {
		t.Fatal("TopK must clamp k")
	}
}

func TestTopKCorrect(t *testing.T) {
	probs := []float64{0.2, 0.9, 0.6, 0.1}
	truth := []bool{false, true, true, false}
	if !TopKCorrect(probs, truth, 1) {
		t.Fatal("top-1 must be correct")
	}
	if !TopKCorrect(probs, truth, 2) {
		t.Fatal("top-2 must be correct")
	}
	if TopKCorrect(probs, truth, 3) {
		t.Fatal("top-3 must be wrong (label 0 not in truth)")
	}
}

func TestExactMatch(t *testing.T) {
	truth := []bool{true, false, true}
	if !ExactMatch([]int{0, 2}, truth) {
		t.Fatal("exact set must match")
	}
	if ExactMatch([]int{0}, truth) {
		t.Fatal("missing label must fail")
	}
	if ExactMatch([]int{0, 1, 2}, truth) {
		t.Fatal("extra label must fail")
	}
}

func TestWrongMissing(t *testing.T) {
	truth := []bool{true, false, true, false}
	wrong, missing := WrongMissing([]int{0, 1}, truth)
	if wrong != 1 || missing != 1 {
		t.Fatalf("wrong=%d missing=%d, want 1,1", wrong, missing)
	}
}

func TestThresholdLabelsProperty(t *testing.T) {
	f := func(raw []float64, thresholdRaw float64) bool {
		probs := make([]float64, len(raw))
		for i, v := range raw {
			probs[i] = clamp01(v)
		}
		threshold := clamp01(thresholdRaw)
		got := ThresholdLabels(probs, threshold)
		// Every selected label is above threshold and sorted descending.
		for k, i := range got {
			if probs[i] < threshold {
				return false
			}
			if k > 0 && probs[got[k-1]] < probs[i] {
				return false
			}
		}
		// Every unselected label is below threshold.
		sel := make(map[int]bool)
		for _, i := range got {
			sel[i] = true
		}
		for i, p := range probs {
			if !sel[i] && p >= threshold {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTreePredictionInRangeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x, y := synthGaussian(rng, 150, 5)
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	tree := TrainTree(x, y, idx, TreeOptions{}, rng)
	f := func(a, b, c, d, e float64) bool {
		p := tree.Predict([]float64{a, b, c, d, e})
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func clamp01(v float64) float64 {
	if v != v || v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func TestPermutationImportance(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	// Feature 0 carries all the signal; features 1-4 are noise.
	n := 400
	x := make([][]float64, n)
	y := make([]bool, n)
	for i := range x {
		pos := i%2 == 0
		y[i] = pos
		signal := -1.0
		if pos {
			signal = 1.0
		}
		x[i] = []float64{signal + 0.3*rng.NormFloat64(), rng.NormFloat64(),
			rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	f := TrainForest(x, y, ForestOptions{NumTrees: 25, Tree: TreeOptions{MTry: 5}}, rng)
	imp := PermutationImportance(f, x, y, 3, rng)
	if len(imp) == 0 {
		t.Fatal("no importances returned")
	}
	if imp[0].Feature != 0 {
		t.Fatalf("most important feature = %d, want 0 (importances: %v)", imp[0].Feature, imp)
	}
	if imp[0].Drop <= 0 {
		t.Fatalf("importance drop = %v", imp[0].Drop)
	}
}

func TestPermutationImportanceEmpty(t *testing.T) {
	if got := PermutationImportance(&Forest{}, nil, nil, 5, rand.New(rand.NewSource(1))); got != nil {
		t.Fatalf("expected nil for empty input, got %v", got)
	}
}
