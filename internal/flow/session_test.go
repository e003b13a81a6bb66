package flow

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/js/parser"
	"repro/internal/obs"
)

// Session-poisoning tests: a reused session must behave exactly like a
// fresh one, no matter what the previous Build did (completed, skipped data
// flow, or timed out). These mirror the parser session's poisoning suite — the flow session
// recycles even more state (scope slabs, ref stores, edge buffers), so the
// hard-reset contract is load-bearing.

func parseT(t *testing.T, src string) *parser.Result {
	t.Helper()
	res, err := parser.ParseNoTokens(src)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// graphsEquivalent compares two graphs built over the same program.
func graphsEquivalent(t *testing.T, label string, got, want *Graph) {
	t.Helper()
	if got.Root != want.Root {
		t.Fatalf("%s: roots differ", label)
	}
	if got.DataFlowTimedOut != want.DataFlowTimedOut {
		t.Fatalf("%s: DataFlowTimedOut = %v, want %v", label, got.DataFlowTimedOut, want.DataFlowTimedOut)
	}
	if !edgesEqual(got.Control, want.Control) {
		t.Fatalf("%s: control edges differ: %d vs %d", label, len(got.Control), len(want.Control))
	}
	if !edgesEqual(got.Data, want.Data) {
		t.Fatalf("%s: data edges differ: %d vs %d", label, len(got.Data), len(want.Data))
	}
	if (got.Scopes == nil) != (want.Scopes == nil) {
		t.Fatalf("%s: Scopes nil-ness differs", label)
	}
	if got.Scopes != nil && len(got.Scopes.Bindings) != len(want.Scopes.Bindings) {
		t.Fatalf("%s: %d bindings, want %d", label, len(got.Scopes.Bindings), len(want.Scopes.Bindings))
	}
}

// TestSessionReuseMatchesFresh builds a sequence of different files through
// one session; each result must match a fresh session's build of the same
// file, compared before the reused session's next Build invalidates it.
func TestSessionReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	files := corpus.RegularSet(4, rng)
	s := NewSession()
	for i, f := range files {
		res := parseT(t, f.Source)
		got := s.Build(res.Program, Options{})
		want := NewSession().Build(res.Program, Options{})
		graphsEquivalent(t, fmt.Sprintf("%s#%d", f.Name, i), got, want)
	}
}

// TestSessionReuseAfterTimeout checks a Build that hit the data-flow
// deadline leaves no residue: the next Build on the same session is
// complete and correct.
func TestSessionReuseAfterTimeout(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	files := corpus.RegularSet(2, rng)
	s := NewSession()
	resA := parseT(t, files[0].Source)
	g := s.Build(resA.Program, Options{DataFlowDeadline: time.Nanosecond})
	if !g.DataFlowTimedOut {
		t.Fatal("1ns deadline did not time out")
	}
	resB := parseT(t, files[1].Source)
	got := s.Build(resB.Program, Options{})
	want := NewSession().Build(resB.Program, Options{})
	graphsEquivalent(t, "after-timeout", got, want)
	if got.DataFlowTimedOut {
		t.Fatal("timeout flag leaked into the next build")
	}
}

// TestSessionReuseAfterSkipDataFlow checks the SkipDataFlow path resets as
// cleanly as the full one.
func TestSessionReuseAfterSkipDataFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	files := corpus.RegularSet(2, rng)
	s := NewSession()
	resA := parseT(t, files[0].Source)
	if g := s.Build(resA.Program, Options{SkipDataFlow: true}); g.Scopes != nil {
		t.Fatal("SkipDataFlow graph carries scopes")
	}
	resB := parseT(t, files[1].Source)
	got := s.Build(resB.Program, Options{})
	want := NewSession().Build(resB.Program, Options{})
	graphsEquivalent(t, "after-skip", got, want)
}

// TestDeadlineBurstSkipRegression pins the deadline-sampling fix. The old
// check ran only when len(Data)%4096 == 0 after a binding's refs were
// appended in one burst; a file whose running edge count stepped over every
// multiple (here 3, 6, 9, ...) was never checked at all and an expired
// deadline went unenforced. The counter-based check must time this build
// out.
func TestDeadlineBurstSkipRegression(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 8; i++ {
		// Each binding gets exactly 3 references, so the running total is
		// 3k — never congruent to 0 mod 4096 for any prefix of this file.
		fmt.Fprintf(&b, "var v%d = 1; use(v%d); use(v%d); use(v%d);\n", i, i, i, i)
	}
	res := parseT(t, b.String())
	g := NewSession().Build(res.Program, Options{DataFlowDeadline: time.Nanosecond})
	if !g.DataFlowTimedOut {
		t.Fatal("expired deadline not enforced on burst-stepping ref counts")
	}
	if len(g.Data) != 0 {
		t.Fatalf("timed-out graph carries %d data edges", len(g.Data))
	}
	if g.Scopes == nil {
		t.Fatal("timeout dropped the scope info along with the data edges")
	}
}

// TestFlowMetricNamesInManifest keeps the flow stage's obs recordings in
// lockstep with the metrics manifest (the full-tree sync lives in
// internal/obs's manifest test).
func TestFlowMetricNamesInManifest(t *testing.T) {
	for _, name := range []string{
		"flow.build",
		"flow.graphs",
		"flow.walk.fused",
		"flow.control_edges",
		"flow.data_edges",
		"flow.scope.bindings",
		"flow.dataflow_timeouts",
	} {
		if !obs.KnownMetric(name) {
			t.Errorf("flow records %q but the manifest does not know it", name)
		}
	}
}

// TestUseMatchesFresh checks the pooled one-shot entry point: the graph Use
// lends to its callback matches a fresh session's, including when the
// borrowed session was warmed by an earlier, different file.
func TestUseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i, f := range corpus.RegularSet(3, rng) {
		res := parseT(t, f.Source)
		want := NewSession().Build(res.Program, Options{})
		Use(res.Program, Options{}, func(got *Graph) {
			graphsEquivalent(t, fmt.Sprintf("%s#%d", f.Name, i), got, want)
			checkGraphInvariants(t, got, res.Program, f.Name)
		})
	}
}

// TestFlowMetricsRecorded checks each Build records its graph into an
// enabled obs registry: edge and binding counts match the graph, and a
// deadline hit is counted. The source carries more references than one
// deadline-check interval, so the in-loop check runs (and passes) too.
func TestFlowMetricsRecorded(t *testing.T) {
	reg := obs.NewRegistry()
	prev := obs.Swap(reg)
	defer obs.Swap(prev)

	src := "var v = 1;" + strings.Repeat(" v;", dataFlowCheckEvery+1)
	res := parseT(t, src)
	s := NewSession()
	g := s.Build(res.Program, Options{})
	if g.DataFlowTimedOut || len(g.Data) != dataFlowCheckEvery+1 {
		t.Fatalf("timed out %v with %d data edges, want %d", g.DataFlowTimedOut, len(g.Data), dataFlowCheckEvery+1)
	}
	for name, want := range map[string]int{
		"flow.graphs":         1,
		"flow.walk.fused":     1,
		"flow.control_edges":  len(g.Control),
		"flow.data_edges":     len(g.Data),
		"flow.scope.bindings": len(g.Scopes.Bindings),
	} {
		if got := reg.Counter(name).Value(); got != int64(want) {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}

	s.Build(res.Program, Options{DataFlowDeadline: time.Nanosecond})
	if got := reg.Counter("flow.dataflow_timeouts").Value(); got != 1 {
		t.Errorf("flow.dataflow_timeouts = %d after one expired deadline, want 1", got)
	}
}
