package analysis

import (
	"math/rand"
	"testing"

	"repro/internal/flow"
	"repro/internal/js/parser"
	"repro/internal/transform"

	"repro/internal/corpus"
)

// benchSource builds a deterministic ~8 KiB obfuscated sample so the parse /
// flow / analyze stages all have real work.
func benchSource(b *testing.B) string {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	src := corpus.GenerateRegular(rng)
	for len(src) < 8192 {
		src += corpus.GenerateRegular(rng)
	}
	out, err := transform.Transform(src, rng,
		transform.GlobalArray, transform.IdentifierObfuscation)
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// BenchmarkParseFlow is the baseline the engine's overhead is measured
// against: parsing plus flow-graph construction only.
func BenchmarkParseFlow(b *testing.B) {
	src := benchSource(b)
	fs := flow.NewSession()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := parser.ParseNoTokens(src)
		if err != nil {
			b.Fatal(err)
		}
		fs.Build(res.Program, flow.Options{})
	}
}

// BenchmarkAnalyze runs the full pipeline: parse, flow, and the complete
// rule registry in its single shared traversal. EXPERIMENTS.md records the
// overhead over BenchmarkParseFlow (budget: < 20%).
func BenchmarkAnalyze(b *testing.B) {
	src := benchSource(b)
	fs := flow.NewSession()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := parser.ParseNoTokens(src)
		if err != nil {
			b.Fatal(err)
		}
		g := fs.Build(res.Program, flow.Options{})
		if diags := AnalyzeParsed(src, res, g); len(diags) == 0 {
			b.Fatal("expected diagnostics on obfuscated sample")
		}
	}
}

// BenchmarkAnalyzeOnly isolates the engine itself on a pre-built parse and
// flow graph.
func BenchmarkAnalyzeOnly(b *testing.B) {
	src := benchSource(b)
	res, err := parser.ParseNoTokens(src)
	if err != nil {
		b.Fatal(err)
	}
	g := flow.NewSession().Build(res.Program, flow.Options{})
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if diags := AnalyzeParsed(src, res, g); len(diags) == 0 {
			b.Fatal("expected diagnostics")
		}
	}
}
