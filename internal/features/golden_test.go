package features

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/corpus"
	"repro/internal/flow"
	"repro/internal/js/ast"
	"repro/internal/js/parser"
	"repro/internal/js/walker"
	"repro/internal/transform"
)

// refNgram is the original string-hashing n-gram implementation, kept here as
// the executable specification of the bucket layout: collect the pre-order
// Type() sequence, feed each window's names (0-separated) through hash/fnv's
// FNV-1a, bucket by Sum32 mod dims, normalize by window count. The optimized
// kind-table path in ngramFeatures must reproduce it bit for bit — trained
// models key on this layout.
func refNgram(prog *ast.Program, dims, n int) []float64 {
	var seq []string
	walker.Walk(prog, func(nd ast.Node, _ int) bool {
		seq = append(seq, nd.Type())
		return true
	})
	out := make([]float64, dims)
	total := 0
	for i := 0; i+n <= len(seq); i++ {
		h := fnv.New32a()
		for j := 0; j < n; j++ {
			h.Write([]byte(seq[i+j]))
			h.Write([]byte{0})
		}
		out[int(h.Sum32())%dims]++
		total++
	}
	if total > 0 {
		for i := range out {
			out[i] /= float64(total)
		}
	}
	return out
}

// goldenFixtures builds a corpus that exercises every transformation
// technique plus untransformed bases, so the comparison covers the node-type
// mixes each technique produces.
func goldenFixtures(t *testing.T) []corpus.File {
	t.Helper()
	rng := rand.New(rand.NewSource(29))
	bases := corpus.RegularSet(len(transform.Techniques), rng)
	files := append([]corpus.File(nil), bases...)
	for i, tech := range transform.Techniques {
		tf, err := corpus.Apply(bases[i], rng, tech)
		if err != nil {
			t.Fatalf("apply %s: %v", tech, err)
		}
		files = append(files, tf)
	}
	return files
}

// TestNGramGoldenVectors is the tentpole's bit-identity guarantee: across
// fixtures spanning all ten techniques and several bucket space sizes, the
// zero-alloc path assigns every window to the same bucket as the reference
// implementation.
func TestNGramGoldenVectors(t *testing.T) {
	files := goldenFixtures(t)
	for _, dims := range []int{64, 1024} {
		for _, ngramLen := range []int{3, 4} {
			e := NewExtractor(Options{NGramDims: dims, NGramLen: ngramLen})
			for _, f := range files {
				res, err := parser.ParseNoTokens(f.Source)
				if err != nil {
					t.Fatalf("%s: parse: %v", f.Name, err)
				}
				got := make([]float64, dims)
				e.ngramFeatures(res, got)
				want := refNgram(res.Program, dims, ngramLen)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s dims=%d n=%d: bucket %d = %v, reference %v",
							f.Name, dims, ngramLen, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestExtractFullDeterministic locks the whole vector, not just the n-gram
// block: two independent extractors (pooled scratch and all) must produce
// bit-identical output for every fixture and layout — one through
// ExtractFull over the caller's graph and diagnostics (the scanner's path),
// the other through Extract's pooled flow session and its own rules run.
func TestExtractFullDeterministic(t *testing.T) {
	files := goldenFixtures(t)
	for _, ruleFeatures := range []bool{false, true} {
		a := NewExtractor(Options{NGramDims: 256, RuleFeatures: ruleFeatures})
		b := NewExtractor(Options{NGramDims: 256, RuleFeatures: ruleFeatures})
		fs := flow.NewSession()
		for _, f := range files {
			res, err := parser.ParseNoTokens(f.Source)
			if err != nil {
				t.Fatalf("%s: parse: %v", f.Name, err)
			}
			g := fs.Build(res.Program, flow.Options{})
			va := a.ExtractFull(f.Source, res, g, analysis.AnalyzeParsed(f.Source, res, g))
			vb, err := b.Extract(f.Source)
			if err != nil {
				t.Fatalf("%s: extract: %v", f.Name, err)
			}
			if len(va) != a.Dim() || len(vb) != len(va) {
				t.Fatalf("%s: vector length %d/%d, want %d", f.Name, len(va), len(vb), a.Dim())
			}
			for i := range va {
				if va[i] != vb[i] {
					t.Fatalf("%s (ruleFeatures=%v): dimension %d differs: %v vs %v",
						f.Name, ruleFeatures, i, va[i], vb[i])
				}
			}
		}
	}
}

// refArrayFetchRatio is the original two-walk prop_vars_fetched_from_arrays:
// a separate walk collects the computed-access object identifiers into a
// pointer set, then the bindings are checked against it. The stats walk's
// NodeID marks must reproduce it bit for bit.
func refArrayFetchRatio(g *flow.Graph) float64 {
	if g.Scopes == nil || len(g.Scopes.Bindings) == 0 {
		return 0
	}
	objects := make(map[*ast.Identifier]bool)
	walker.Walk(g.Root, func(n ast.Node, _ int) bool {
		if m, ok := n.(*ast.MemberExpression); ok && m.Computed {
			if id, ok := m.Object.(*ast.Identifier); ok {
				objects[id] = true
			}
		}
		return true
	})
	fetched, total := 0, 0
	for _, b := range g.Scopes.Bindings {
		total++
		switch b.Init.(type) {
		case *ast.ArrayExpression, *ast.ObjectExpression:
		default:
			continue
		}
		for _, ref := range b.Refs {
			if objects[ref] {
				fetched++
				break
			}
		}
	}
	return float64(fetched) / float64(total)
}

// TestArrayFetchRatioGolden pins the folded prop_vars_fetched_from_arrays
// against the reference over every fixture, with data flow and without.
func TestArrayFetchRatioGolden(t *testing.T) {
	fs := flow.NewSession()
	nonzero := 0
	for _, f := range goldenFixtures(t) {
		res, err := parser.ParseNoTokens(f.Source)
		if err != nil {
			t.Fatalf("%s: parse: %v", f.Name, err)
		}
		for _, skip := range []bool{false, true} {
			g := fs.Build(res.Program, flow.Options{SkipDataFlow: skip})
			got := collectStats(res.Program, g.Scopes).fetchedFromArrays
			if want := refArrayFetchRatio(g); got != want {
				t.Fatalf("%s (skip=%v): fetched-from-arrays %v, reference %v", f.Name, skip, got, want)
			}
			if got != 0 {
				nonzero++
			}
		}
	}
	if nonzero == 0 {
		t.Fatal("no fixture exercises a nonzero fetched-from-arrays ratio")
	}
}
