// Package ml implements the learning machinery of the paper's pipeline from
// scratch: CART decision trees, bagged random forests, and the two
// multi-task arrangements the paper compares (classifier chain and
// independent binary relevance), plus the evaluation metrics (exact-match
// accuracy, Top-k accuracy, wrong/missing label counts).
package ml

import (
	"math"
	"math/rand"
	"sort"
)

// TreeOptions configures CART training.
type TreeOptions struct {
	// MaxDepth limits tree depth; zero means 24.
	MaxDepth int
	// MinLeaf is the minimum number of samples in a leaf; zero means 2.
	MinLeaf int
	// MTry is the number of features sampled at each split; zero means
	// sqrt(d).
	MTry int
}

func (o TreeOptions) maxDepth() int {
	if o.MaxDepth <= 0 {
		return 24
	}
	return o.MaxDepth
}

func (o TreeOptions) minLeaf() int {
	if o.MinLeaf <= 0 {
		return 2
	}
	return o.MinLeaf
}

func (o TreeOptions) mtry(dims int) int {
	if o.MTry > 0 {
		return o.MTry
	}
	m := int(math.Sqrt(float64(dims)))
	if m < 1 {
		m = 1
	}
	return m
}

// TreeNode is one node of a serialized decision tree. Leaves have
// Left == -1.
type TreeNode struct {
	Feature   int32
	Threshold float64
	Left      int32
	Right     int32
	Prob      float64
}

// Tree is a trained CART binary classifier.
type Tree struct {
	Nodes []TreeNode
}

// Predict returns the probability of the positive class for x.
func (t *Tree) Predict(x []float64) float64 { return t.predict(x, nil) }

// predict evaluates the tree on x extended by tail: feature len(x)+j reads
// tail[j]. A classifier chain passes the earlier links' probabilities as
// tail instead of copying x to append them.
func (t *Tree) predict(x, tail []float64) float64 {
	if len(t.Nodes) == 0 {
		return 0.5
	}
	i := int32(0)
	for {
		n := t.Nodes[i]
		if n.Left < 0 {
			return n.Prob
		}
		var v float64
		if f := int(n.Feature); f < len(x) {
			v = x[f]
		} else {
			v = tail[f-len(x)]
		}
		if v <= n.Threshold {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// TrainTree fits a CART tree on the rows of X indexed by idx with labels y.
// Feature subsampling at each split uses rng, making the tree suitable as a
// random-forest member.
func TrainTree(x [][]float64, y []bool, idx []int, opts TreeOptions, rng *rand.Rand) *Tree {
	if len(idx) == 0 {
		return &Tree{Nodes: []TreeNode{{Left: -1, Right: -1, Prob: 0.5}}}
	}
	dims := len(x[idx[0]])
	t := &Tree{}
	b := &treeBuilder{
		x: x, y: y, opts: opts, rng: rng,
		mtry: opts.mtry(dims), dims: dims, tree: t,
	}
	b.build(idx, 0)
	return t
}

type treeBuilder struct {
	x    [][]float64
	y    []bool
	opts TreeOptions
	rng  *rand.Rand
	mtry int
	dims int
	tree *Tree
}

// build grows a subtree over samples idx and returns its node index.
func (b *treeBuilder) build(idx []int, depth int) int32 {
	pos := 0
	for _, i := range idx {
		if b.y[i] {
			pos++
		}
	}
	// Laplace-smoothed leaf probability.
	prob := (float64(pos) + 1) / (float64(len(idx)) + 2)

	node := int32(len(b.tree.Nodes))
	b.tree.Nodes = append(b.tree.Nodes, TreeNode{Left: -1, Right: -1, Prob: prob})

	if pos == 0 || pos == len(idx) ||
		depth >= b.opts.maxDepth() || len(idx) < 2*b.opts.minLeaf() {
		return node
	}

	feat, thresh, ok := b.bestSplit(idx, pos)
	if !ok {
		return node
	}

	var left, right []int
	for _, i := range idx {
		if b.x[i][feat] <= thresh {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < b.opts.minLeaf() || len(right) < b.opts.minLeaf() {
		return node
	}

	l := b.build(left, depth+1)
	r := b.build(right, depth+1)
	b.tree.Nodes[node].Feature = int32(feat)
	b.tree.Nodes[node].Threshold = thresh
	b.tree.Nodes[node].Left = l
	b.tree.Nodes[node].Right = r
	return node
}

// bestSplit scans mtry random features for the split with the best Gini
// gain.
func (b *treeBuilder) bestSplit(idx []int, pos int) (int, float64, bool) {
	n := len(idx)
	total := float64(n)
	bestGini := math.Inf(1)
	bestFeat, bestThresh := -1, 0.0

	type pair struct {
		v   float64
		pos bool
	}
	pairs := make([]pair, n)

	seen := make(map[int]bool, b.mtry)
	for tries := 0; tries < b.mtry; {
		f := b.rng.Intn(b.dims)
		if seen[f] {
			// Resample; with dims >> mtry collisions are rare.
			if len(seen) >= b.dims {
				break
			}
			continue
		}
		seen[f] = true
		tries++

		for k, i := range idx {
			pairs[k] = pair{v: b.x[i][f], pos: b.y[i]}
		}
		sort.Slice(pairs, func(a, c int) bool { return pairs[a].v < pairs[c].v })
		if pairs[0].v == pairs[n-1].v {
			continue
		}

		leftN, leftPos := 0, 0
		for k := 0; k < n-1; k++ {
			leftN++
			if pairs[k].pos {
				leftPos++
			}
			if pairs[k].v == pairs[k+1].v {
				continue
			}
			rightN := n - leftN
			rightPos := pos - leftPos
			gini := giniSplit(leftN, leftPos, rightN, rightPos, total)
			if gini < bestGini {
				bestGini = gini
				bestFeat = f
				bestThresh = (pairs[k].v + pairs[k+1].v) / 2
			}
		}
	}
	return bestFeat, bestThresh, bestFeat >= 0
}

// giniSplit is the weighted Gini impurity of a candidate split.
func giniSplit(leftN, leftPos, rightN, rightPos int, total float64) float64 {
	gini := func(n, pos int) float64 {
		if n == 0 {
			return 0
		}
		p := float64(pos) / float64(n)
		return 2 * p * (1 - p)
	}
	return float64(leftN)/total*gini(leftN, leftPos) +
		float64(rightN)/total*gini(rightN, rightPos)
}
