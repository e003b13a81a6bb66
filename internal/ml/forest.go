package ml

import (
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/obs"
)

// ForestOptions configures random-forest training.
type ForestOptions struct {
	// NumTrees is the ensemble size; zero means 40.
	NumTrees int
	// Tree holds the per-tree CART options.
	Tree TreeOptions
	// Parallel enables goroutine-per-core training.
	Parallel bool
}

func (o ForestOptions) numTrees() int {
	if o.NumTrees <= 0 {
		return 40
	}
	return o.NumTrees
}

// Forest is a bagged ensemble of CART trees; the predicted probability is
// the mean of the member probabilities.
type Forest struct {
	Trees []*Tree
}

// Predict returns the probability of the positive class for x.
func (f *Forest) Predict(x []float64) float64 { return f.predict(x, nil) }

// predict is Predict on x extended by tail (see Tree.predict).
func (f *Forest) predict(x, tail []float64) float64 {
	if len(f.Trees) == 0 {
		return 0.5
	}
	obs.Add("ml.tree_evals", int64(len(f.Trees)))
	sum := 0.0
	for _, t := range f.Trees {
		sum += t.predict(x, tail)
	}
	return sum / float64(len(f.Trees))
}

// TrainForest fits a random forest with bootstrap sampling.
func TrainForest(x [][]float64, y []bool, opts ForestOptions, rng *rand.Rand) *Forest {
	n := len(x)
	numTrees := opts.numTrees()
	forest := &Forest{Trees: make([]*Tree, numTrees)}
	if n == 0 {
		for i := range forest.Trees {
			forest.Trees[i] = &Tree{Nodes: []TreeNode{{Left: -1, Right: -1, Prob: 0.5}}}
		}
		return forest
	}

	// Derive an independent seed per tree up front so parallel training is
	// deterministic for a given rng state.
	seeds := make([]int64, numTrees)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}

	train := func(i int) {
		treeRng := rand.New(rand.NewSource(seeds[i]))
		idx := make([]int, n)
		for j := range idx {
			idx[j] = treeRng.Intn(n)
		}
		forest.Trees[i] = TrainTree(x, y, idx, opts.Tree, treeRng)
	}

	if !opts.Parallel {
		for i := 0; i < numTrees; i++ {
			train(i)
		}
		return forest
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > numTrees {
		workers = numTrees
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				train(i)
			}
		}()
	}
	for i := 0; i < numTrees; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return forest
}
