// External test package: the poisoning tests compare full Results through
// the printer and walker, which an in-package test could also do, but the
// external package proves the exported Session surface alone is enough.
package parser_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/js/ast"
	"repro/internal/js/lexer"
	"repro/internal/js/parser"
	"repro/internal/js/printer"
	"repro/internal/js/walker"
	"repro/internal/obs"
	"repro/internal/transform"
)

// poisonA leans on every piece of pooled state: comments, the arrow-head
// memo table, template rescans, private names, and a deep token stream.
const poisonA = `// comment A
const f = (a, b) => a + b;
let t = ` + "`x${f(1, 2)}y`" + `;
class K { #p = 1; get v() { return this.#p + f(3, 4); } }
`

// poisonB is structurally different from poisonA so any leaked state shows.
const poisonB = `/* comment B */
function g(n) { return n * 2; }
var arr = [1, 2, 3].map((x) => x + 1);
`

// fingerprint is everything a Result exposes, read out so it can be
// compared after the Result itself has been reused: the compact print, one
// record per node in pre-order (kind, span, NodeID), the kind stream,
// tokens, comments, and the token count.
type fingerprint struct {
	printed   string
	nodes     []nodeRecord
	kinds     []uint16
	tokens    []lexer.Token
	comments  []lexer.Comment
	numTokens int
}

type nodeRecord struct {
	kind ast.Kind
	span ast.Span
	id   ast.NodeID
}

func fingerprintOf(res *parser.Result) fingerprint {
	fp := fingerprint{
		printed:   printer.Compact(res.Program),
		kinds:     append([]uint16(nil), res.Kinds...),
		tokens:    append([]lexer.Token(nil), res.Tokens...),
		comments:  append([]lexer.Comment(nil), res.Comments...),
		numTokens: res.NumTokens,
	}
	walker.Walk(res.Program, func(n ast.Node, _ int) bool {
		fp.nodes = append(fp.nodes, nodeRecord{n.NodeKind(), n.Span(), n.NodeID()})
		return true
	})
	return fp
}

// assertSameResult requires got to be bit-identical to want in every part
// a fingerprint holds.
func assertSameResult(t *testing.T, label string, want, got fingerprint) {
	t.Helper()
	if want.printed != got.printed {
		t.Fatalf("%s: printed output differs:\nfresh:  %s\nreused: %s", label, want.printed, got.printed)
	}
	for _, part := range []struct {
		name       string
		want, have any
	}{
		{"node records", want.nodes, got.nodes},
		{"kind streams", want.kinds, got.kinds},
		{"token streams", want.tokens, got.tokens},
		{"comments", want.comments, got.comments},
		{"NumTokens", want.numTokens, got.numTokens},
	} {
		if !reflect.DeepEqual(part.want, part.have) {
			t.Fatalf("%s: %s differ:\nfresh:  %v\nreused: %v", label, part.name, part.want, part.have)
		}
	}
}

// TestSessionReuseNotPoisoned scans file A and then file B through one
// pooled session and requires B's result to be bit-identical to a fresh
// parse: nothing from A — tokens, comments, memo entries, lexer state — may
// leak into B.
func TestSessionReuseNotPoisoned(t *testing.T) {
	fresh, err := parser.NewSession().Parse(poisonB)
	if err != nil {
		t.Fatalf("fresh parse: %v", err)
	}
	s := parser.NewSession()
	if _, err := s.Parse(poisonA); err != nil {
		t.Fatalf("parse A: %v", err)
	}
	reused, err := s.Parse(poisonB)
	if err != nil {
		t.Fatalf("reused parse B: %v", err)
	}
	assertSameResult(t, "poisonB", fingerprintOf(fresh), fingerprintOf(reused))
}

// TestSessionReuseAfterError: a failed parse must not poison the session
// either — reset happens on entry, not on the success path.
func TestSessionReuseAfterError(t *testing.T) {
	s := parser.NewSession()
	if _, err := s.Parse("(a, b)\n@"); err == nil {
		t.Fatal("malformed input must fail to parse")
	}
	reused, err := s.Parse(poisonB)
	if err != nil {
		t.Fatalf("reused parse B: %v", err)
	}
	fresh, err := parser.NewSession().Parse(poisonB)
	if err != nil {
		t.Fatalf("fresh parse: %v", err)
	}
	assertSameResult(t, "poisonB", fingerprintOf(fresh), fingerprintOf(reused))
}

// TestSessionReuseAcrossCollectModes: flipping between ParseNoTokens and
// Parse on one session must not leave a stale token slice behind.
func TestSessionReuseAcrossCollectModes(t *testing.T) {
	s := parser.NewSession()
	if _, err := s.ParseNoTokens(poisonA); err != nil {
		t.Fatalf("ParseNoTokens A: %v", err)
	}
	reused, err := s.Parse(poisonB)
	if err != nil {
		t.Fatalf("reused parse B: %v", err)
	}
	fresh, err := parser.NewSession().Parse(poisonB)
	if err != nil {
		t.Fatalf("fresh parse: %v", err)
	}
	assertSameResult(t, "poisonB", fingerprintOf(fresh), fingerprintOf(reused))
	if len(reused.Tokens) == 0 {
		t.Fatal("Parse after ParseNoTokens returned no tokens")
	}
	noTok, err := s.ParseNoTokens(poisonB)
	if err != nil {
		t.Fatalf("ParseNoTokens B: %v", err)
	}
	if noTok.Tokens != nil {
		t.Fatal("ParseNoTokens after Parse leaked a token slice")
	}
	if noTok.NumTokens != fresh.NumTokens {
		t.Fatalf("NumTokens = %d, want %d", noTok.NumTokens, fresh.NumTokens)
	}
}

// sessionInputs is the corpus, one output of every monitored technique,
// and the packer, ordered so sizes alternate smallest, largest, next
// smallest, next largest: every parse reuses an arena last filled by a
// file of a very different size.
func sessionInputs(t *testing.T) []corpus.File {
	t.Helper()
	rng := rand.New(rand.NewSource(13))
	files := corpus.RegularSet(4, rng)
	base := files[0]
	for _, tech := range append(append([]transform.Technique{}, transform.Techniques...), transform.Packer) {
		out, err := corpus.Apply(base, rng, tech)
		if err != nil {
			t.Fatalf("apply %s: %v", tech, err)
		}
		files = append(files, out)
	}
	sort.Slice(files, func(i, j int) bool { return len(files[i].Source) < len(files[j].Source) })
	out := make([]corpus.File, 0, len(files))
	for lo, hi := 0, len(files)-1; lo <= hi; lo, hi = lo+1, hi-1 {
		out = append(out, files[lo])
		if lo != hi {
			out = append(out, files[hi])
		}
	}
	return out
}

// TestSessionReuseMatchesFreshAcrossSizes: one Session parses the corpus,
// every transform output and the packer in sequence, alternating Parse and
// ParseNoTokens, so each parse reuses an arena, kind stream and buffers
// last filled by a file of a very different size. Each Result must equal a
// fresh session's, node for node, before the next parse reuses it.
func TestSessionReuseMatchesFreshAcrossSizes(t *testing.T) {
	s := parser.NewSession()
	for step, f := range sessionInputs(t) {
		parse, mode := (*parser.Session).Parse, "Parse"
		if step%2 == 1 {
			parse, mode = (*parser.Session).ParseNoTokens, "ParseNoTokens"
		}
		fresh, err := parse(parser.NewSession(), f.Source)
		if err != nil {
			t.Fatalf("step %d %s: fresh %s: %v", step, f.Name, mode, err)
		}
		reused, err := parse(s, f.Source)
		if err != nil {
			t.Fatalf("step %d %s: reused %s: %v", step, f.Name, mode, err)
		}
		assertSameResult(t, fmt.Sprintf("step %d %s (%d bytes, %s)", step, f.Name, len(f.Source), mode),
			fingerprintOf(fresh), fingerprintOf(reused))
	}
}

// TestPackageResultsOutliveLaterParses: the package-level entry points parse
// on sessions of their own, so their Results (and ParseProgram's tree) stay
// intact however many parses follow, pooled or not.
func TestPackageResultsOutliveLaterParses(t *testing.T) {
	res, err := parser.Parse(poisonA)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	noTok, err := parser.ParseNoTokens(poisonB)
	if err != nil {
		t.Fatalf("ParseNoTokens: %v", err)
	}
	prog, err := parser.ParseProgram(poisonA)
	if err != nil {
		t.Fatalf("ParseProgram: %v", err)
	}
	wantRes, wantNoTok := fingerprintOf(res), fingerprintOf(noTok)
	wantProg := printer.Compact(prog)

	s := parser.NewSession()
	later := []func(string) error{
		func(src string) error { _, err := parser.Parse(src); return err },
		func(src string) error { _, err := parser.ParseProgram(src); return err },
		func(src string) error { _, err := s.Parse(src); return err },
		func(src string) error { return parser.Use(src, func(*parser.Result) {}) },
	}
	for i, f := range sessionInputs(t) {
		if err := later[i%len(later)](f.Source); err != nil {
			t.Fatalf("%s: later parse %d: %v", f.Name, i, err)
		}
	}
	assertSameResult(t, "Parse result after later parses", wantRes, fingerprintOf(res))
	assertSameResult(t, "ParseNoTokens result after later parses", wantNoTok, fingerprintOf(noTok))
	if got := printer.Compact(prog); got != wantProg {
		t.Fatalf("a ParseProgram tree changed after later parses:\nbefore: %s\nafter:  %s", wantProg, got)
	}
}

// TestUseMatchesFresh: Use lends a pooled session's Result for the length
// of the callback, equal to a fresh ParseNoTokens, and reports parse
// errors without calling back.
func TestUseMatchesFresh(t *testing.T) {
	for _, src := range []string{poisonA, poisonB, poisonA} {
		fresh, err := parser.NewSession().ParseNoTokens(src)
		if err != nil {
			t.Fatalf("fresh parse: %v", err)
		}
		want := fingerprintOf(fresh)
		called := false
		if err := parser.Use(src, func(res *parser.Result) {
			called = true
			assertSameResult(t, "Use", want, fingerprintOf(res))
		}); err != nil {
			t.Fatalf("Use: %v", err)
		}
		if !called {
			t.Fatal("Use did not call back on a successful parse")
		}
	}
	if err := parser.Use("(a, b)\n@", func(*parser.Result) { t.Fatal("Use called back on a failed parse") }); err == nil {
		t.Fatal("Use returned no error for malformed input")
	}
}

// TestUseConcurrentMatchesFresh lends pooled sessions to several
// goroutines at once, as training's parallel feature extraction does; under
// -race it proves no two callers share a session.
func TestUseConcurrentMatchesFresh(t *testing.T) {
	srcs := []string{poisonA, poisonB}
	want := make([]fingerprint, len(srcs))
	for i, src := range srcs {
		res, err := parser.NewSession().ParseNoTokens(src)
		if err != nil {
			t.Fatalf("fresh parse: %v", err)
		}
		want[i] = fingerprintOf(res)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (w + i) % len(srcs)
				err := parser.Use(srcs[k], func(res *parser.Result) {
					if !reflect.DeepEqual(fingerprintOf(res), want[k]) {
						errs <- "a lent Result differs from a fresh parse"
					}
				})
				if err != nil {
					errs <- err.Error()
				}
				if len(errs) > 0 {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestWarmSessionParseAllocs pins the reuse gain: once warm, a Session's
// arena, Result, kind stream and comment buffer allocate nothing, so a
// re-parse pays only for the tree's node lists. The bounds sit just above
// the measured costs: 53 allocations and ~1.4 KB for the 1.1 KB corpus
// file, 10 and ~260 B for the smaller one, against 120 and ~58 KB, 49 and
// ~28 KB on a fresh session.
func TestWarmSessionParseAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	file := corpus.RegularSet(1, rng)[0].Source
	for _, tc := range []struct {
		name          string
		src           string
		allocs, bytes float64
	}{
		{"corpus file", file, 60, 2048},
		{"smaller file", poisonB, 12, 512},
	} {
		s := parser.NewSession()
		if _, err := s.ParseNoTokens(file); err != nil {
			t.Fatalf("warm-up: %v", err)
		}
		parse := func() {
			if _, err := s.ParseNoTokens(tc.src); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(20, parse); allocs > tc.allocs {
			t.Errorf("%s: warm ParseNoTokens allocates %.0f times, want <= %.0f", tc.name, allocs, tc.allocs)
		}
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			parse()
		}
		runtime.ReadMemStats(&after)
		if b := float64(after.TotalAlloc-before.TotalAlloc) / runs; b > tc.bytes {
			t.Errorf("%s: warm ParseNoTokens allocates %.0f bytes, want <= %.0f", tc.name, b, tc.bytes)
		}
	}
}

// TestParseMetricsRecordedOnFailure pins the fix for the dropped
// lex.tokens_rescanned counter: arrow-head backtracking happens on failed
// parses too, and the re-scan count must land in the registry even when the
// parse errors out.
func TestParseMetricsRecordedOnFailure(t *testing.T) {
	reg := obs.NewRegistry()
	prev := obs.Swap(reg)
	defer obs.Swap(prev)
	// "(a, b)" is re-scanned after the arrow-head attempt fails; the "@"
	// then kills the parse.
	if _, err := parser.Parse("(a, b)\n@"); err == nil {
		t.Fatal("malformed input must fail to parse")
	}
	if got := reg.Counter("parse.errors").Value(); got != 1 {
		t.Fatalf("parse.errors = %d, want 1", got)
	}
	if got := reg.Counter("lex.tokens_rescanned").Value(); got == 0 {
		t.Fatal("failed parse with backtracking recorded no lex.tokens_rescanned")
	}
	if got := reg.Counter("parse.files").Value(); got != 1 {
		t.Fatalf("parse.files = %d, want 1", got)
	}
}

// TestParseMetricNamesInManifest keeps the parser's obs recordings in
// lockstep with the metrics manifest: every name parse() can record must be
// a known metric, so a rename in either place fails here (the full-tree
// sync lives in internal/obs's manifest test).
func TestParseMetricNamesInManifest(t *testing.T) {
	for _, name := range []string{
		"parse.duration",
		"parse.files",
		"parse.bytes",
		"parse.file_bytes",
		"parse.tokens",
		"parse.errors",
		"lex.tokens",
		"lex.comments",
		"lex.tokens_rescanned",
	} {
		if !obs.KnownMetric(name) {
			t.Errorf("parser records %q but the manifest does not know it", name)
		}
	}
}
