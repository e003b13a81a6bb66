package ml

import (
	"fmt"
	"math/rand"

	"repro/internal/obs"
)

// MultiTask is a multi-label classifier over a fixed label set (the paper's
// "multi-task system", Section III-C): per input it produces one probability
// per label.
type MultiTask interface {
	// Labels returns the class names in prediction order.
	Labels() []string
	// PredictProbs returns one probability per label for x.
	PredictProbs(x []float64) []float64
}

// Chain is the classifier-chain arrangement [38], [41]: the binary
// classifier at position P receives the predictions of classifiers 0..P-1
// as additional features. The paper's validation selected this arrangement
// over the independence assumption for both detectors.
type Chain struct {
	Names   []string
	Forests []*Forest
}

// Labels implements MultiTask.
func (c *Chain) Labels() []string { return c.Names }

// PredictProbs implements MultiTask. Link i sees x extended by the
// probabilities of links 0..i-1, read in place from probs rather than from
// a copy of x.
func (c *Chain) PredictProbs(x []float64) []float64 {
	defer obs.Time("ml.predict")()
	obs.Add("ml.predictions", 1)
	probs := make([]float64, len(c.Forests))
	for i, f := range c.Forests {
		probs[i] = f.predict(x, probs[:i])
	}
	return probs
}

// TrainChain fits a classifier chain. y[i][j] says whether sample i carries
// label j.
func TrainChain(x [][]float64, y [][]bool, labels []string, opts ForestOptions, rng *rand.Rand) (*Chain, error) {
	if err := validate(x, y, labels); err != nil {
		return nil, err
	}
	c := &Chain{Names: append([]string(nil), labels...)}
	// ext accumulates the chained prediction features per sample.
	ext := make([][]float64, len(x))
	for i := range x {
		ext[i] = make([]float64, len(x[i]), len(x[i])+len(labels))
		copy(ext[i], x[i])
	}
	for j := range labels {
		yj := make([]bool, len(y))
		for i := range y {
			yj[i] = y[i][j]
		}
		f := TrainForest(ext, yj, opts, rng)
		c.Forests = append(c.Forests, f)
		// Append this classifier's (in-sample) predictions as a feature for
		// the next link, as in scikit-learn's ClassifierChain.
		for i := range ext {
			ext[i] = append(ext[i], f.Predict(ext[i]))
		}
	}
	return c, nil
}

// Independent is the binary-relevance arrangement [43]: one forest per
// label, no coupling.
type Independent struct {
	Names   []string
	Forests []*Forest
}

// Labels implements MultiTask.
func (m *Independent) Labels() []string { return m.Names }

// PredictProbs implements MultiTask.
func (m *Independent) PredictProbs(x []float64) []float64 {
	defer obs.Time("ml.predict")()
	obs.Add("ml.predictions", 1)
	probs := make([]float64, len(m.Forests))
	for i, f := range m.Forests {
		probs[i] = f.Predict(x)
	}
	return probs
}

// TrainIndependent fits one forest per label.
func TrainIndependent(x [][]float64, y [][]bool, labels []string, opts ForestOptions, rng *rand.Rand) (*Independent, error) {
	if err := validate(x, y, labels); err != nil {
		return nil, err
	}
	m := &Independent{Names: append([]string(nil), labels...)}
	for j := range labels {
		yj := make([]bool, len(y))
		for i := range y {
			yj[i] = y[i][j]
		}
		m.Forests = append(m.Forests, TrainForest(x, yj, opts, rng))
	}
	return m, nil
}

func validate(x [][]float64, y [][]bool, labels []string) error {
	if len(x) != len(y) {
		return fmt.Errorf("ml: %d samples but %d label rows", len(x), len(y))
	}
	if len(x) == 0 {
		return fmt.Errorf("ml: empty training set")
	}
	if len(labels) == 0 {
		return fmt.Errorf("ml: no labels")
	}
	for i := range y {
		if len(y[i]) != len(labels) {
			return fmt.Errorf("ml: label row %d has %d entries, want %d", i, len(y[i]), len(labels))
		}
	}
	dim := len(x[0])
	for i := range x {
		if len(x[i]) != dim {
			return fmt.Errorf("ml: sample %d has dim %d, want %d", i, len(x[i]), dim)
		}
	}
	return nil
}
