package features

import (
	"testing"

	"repro/internal/flow"
	"repro/internal/js/parser"
)

const allocProbeSrc = `
function decode(arr, key) {
	var out = [];
	for (var i = 0; i < arr.length; i++) {
		out.push(String.fromCharCode(arr[i] ^ key));
	}
	return out.join("");
}
var table = ["alpha", "beta", "gamma", "delta"];
var pick = function (i) { return table[i % table.length]; };
while (table.length < 32) {
	table.push(pick(table.length) + table.length.toString(16));
}
switch (table.length) {
case 32:
	decode([104, 105], 7);
	break;
default:
	eval("table.reverse()");
}
`

// TestNGramFeaturesZeroAlloc pins the hot n-gram path at zero allocations per
// file once the walker pool is warm. A regression here (a new closure, a
// string materialization, a defer) shows up as a nonzero average.
func TestNGramFeaturesZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector; the pooled path is race-checked via TestExtractFullDeterministic")
	}
	res, err := parser.ParseNoTokens(allocProbeSrc)
	if err != nil {
		t.Fatal(err)
	}
	e := NewExtractor(Options{})
	out := make([]float64, e.opts.dims())
	e.ngramFeatures(res, out) // warm the pool

	avg := testing.AllocsPerRun(200, func() {
		for i := range out {
			out[i] = 0
		}
		e.ngramFeatures(res, out)
	})
	if avg != 0 {
		t.Errorf("ngramFeatures allocates %.2f times per run on a warmed pool, want 0", avg)
	}
}

// TestCollectStatsSingleAlloc locks the stats walk to the one unavoidable
// allocation pattern: the returned *stats and its builtins map. Everything
// else (child slices, closures, the identifier set, per-level counts, the
// computed-object marks) must come from the collector pool.
func TestCollectStatsSingleAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector; the pooled path is race-checked via TestExtractFullDeterministic")
	}
	res, err := parser.ParseNoTokens(allocProbeSrc)
	if err != nil {
		t.Fatal(err)
	}
	info := flow.NewSession().Build(res.Program, flow.Options{}).Scopes
	collectStats(res.Program, info) // warm the pool

	avg := testing.AllocsPerRun(200, func() {
		collectStats(res.Program, info)
	})
	// *stats + the builtins map header; allow its single bucket too.
	if avg > 3 {
		t.Errorf("collectStats allocates %.2f times per run on a warmed pool, want <= 3", avg)
	}
}
