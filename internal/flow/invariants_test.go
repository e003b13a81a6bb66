package flow

import (
	"fmt"
	"math/rand"
	"testing"

	"time"

	"repro/internal/corpus"
	"repro/internal/js/ast"
	"repro/internal/js/parser"
	"repro/internal/js/walker"
	"repro/internal/transform"
)

// Structural invariants of the enhanced graph, checked over generated
// corpus programs (regular and transformed): every edge connects two nodes
// of the graph's own Program, no edge dangles or repeats, and building is
// idempotent — the graph is derived from the AST without mutating it.

// programNodes collects the node set of a program.
func programNodes(prog *ast.Program) map[ast.Node]bool {
	nodes := make(map[ast.Node]bool)
	walker.Walk(prog, func(n ast.Node, _ int) bool {
		nodes[n] = true
		return true
	})
	return nodes
}

// checkGraphInvariants asserts the structural invariants of g against the
// program it claims to enhance.
func checkGraphInvariants(t *testing.T, g *Graph, prog *ast.Program, label string) {
	t.Helper()
	if g.Root != prog {
		t.Fatalf("%s: graph root is not the built program", label)
	}
	nodes := programNodes(prog)
	seenControl := make(map[[2]ast.Node]bool, len(g.Control))
	for i, e := range g.Control {
		if e.From == nil || e.To == nil {
			t.Fatalf("%s: control edge %d has nil endpoint", label, i)
		}
		if !nodes[e.From] || !nodes[e.To] {
			t.Fatalf("%s: control edge %d (%T -> %T) leaves the program's node set",
				label, i, e.From, e.To)
		}
		key := [2]ast.Node{e.From, e.To}
		if seenControl[key] {
			t.Fatalf("%s: duplicate control edge %d (%T -> %T)", label, i, e.From, e.To)
		}
		seenControl[key] = true
	}
	seenData := make(map[[2]ast.Node]bool, len(g.Data))
	for i, e := range g.Data {
		if e.From == nil || e.To == nil {
			t.Fatalf("%s: data edge %d has nil endpoint", label, i)
		}
		if !nodes[e.From] || !nodes[e.To] {
			t.Fatalf("%s: data edge %d leaves the program's node set", label, i)
		}
		// Data flow connects Identifier nodes only (paper's adjustment).
		if _, ok := e.From.(*ast.Identifier); !ok {
			t.Fatalf("%s: data edge %d From is %T, want *ast.Identifier", label, i, e.From)
		}
		if _, ok := e.To.(*ast.Identifier); !ok {
			t.Fatalf("%s: data edge %d To is %T, want *ast.Identifier", label, i, e.To)
		}
		if e.From == e.To {
			t.Fatalf("%s: data edge %d is a self loop", label, i)
		}
		key := [2]ast.Node{e.From, e.To}
		if seenData[key] {
			t.Fatalf("%s: duplicate data edge %d", label, i)
		}
		seenData[key] = true
	}
}

// edgesEqual compares two edge slices for identical content and order.
func edgesEqual(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGraphInvariantsOverCorpus(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			src := corpus.GenerateRegular(rand.New(rand.NewSource(seed)))
			prog, err := parser.ParseProgram(src)
			if err != nil {
				t.Fatalf("corpus generator emitted unparseable JS: %v", err)
			}
			g := NewSession().Build(prog, Options{})
			checkGraphInvariants(t, g, prog, "regular")
			if len(g.Control) == 0 {
				t.Fatal("generated program produced no control edges")
			}
			if g.Scopes == nil {
				t.Fatal("data-flow build left Scopes nil")
			}

			// Idempotence: a second build over the same AST is identical,
			// proving the first build did not mutate the program.
			g2 := NewSession().Build(prog, Options{})
			if !edgesEqual(g.Control, g2.Control) {
				t.Fatalf("second build changed control edges: %d vs %d",
					len(g.Control), len(g2.Control))
			}
			if !edgesEqual(g.Data, g2.Data) {
				t.Fatalf("second build changed data edges: %d vs %d",
					len(g.Data), len(g2.Data))
			}
		})
	}
}

// TestGraphInvariantsOverTransforms runs the same invariants over each
// obfuscation/minification technique's output — the adversarial shapes the
// detector actually scans.
func TestGraphInvariantsOverTransforms(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	base := corpus.RegularSet(1, rng)[0]
	for _, tech := range transform.Techniques {
		tech := tech
		t.Run(tech.String(), func(t *testing.T) {
			tf, err := corpus.Apply(base, rng, tech)
			if err != nil {
				t.Fatalf("transform failed: %v", err)
			}
			prog, err := parser.ParseProgram(tf.Source)
			if err != nil {
				t.Fatalf("transformed source unparseable: %v", err)
			}
			g := NewSession().Build(prog, Options{})
			checkGraphInvariants(t, g, prog, tech.String())
			g2 := NewSession().Build(prog, Options{})
			if !edgesEqual(g.Control, g2.Control) || !edgesEqual(g.Data, g2.Data) {
				t.Fatal("rebuild over transformed program not idempotent")
			}
		})
	}
}

// TestTerminatorsCutFallthrough pins the control-flow treatment of
// terminating statements: no sequential edge leaves a return/throw/break/
// continue (or a block ending in one), and function bodies nested in
// expressions are still wired.
func TestTerminatorsCutFallthrough(t *testing.T) {
	src := `
function f(c) {
  if (c) { return 1; }
  throw new Error("x");
  unreachable();
}
for (;;) { if (x) break; else continue; after(); }
var g = (function named() { return 0; })();
var h = (() => { return 1; })();
var i = (() => shortArrow)();
`
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	g := NewSession().Build(prog, Options{})
	checkGraphInvariants(t, g, prog, "terminators")
	// No control edge may originate at a terminator statement's sequential
	// successor position: find edges whose From is a ThrowStatement — the
	// only edge into `unreachable()` would be throw -> expr, which the
	// builder must not create.
	for _, e := range g.Control {
		if _, ok := e.From.(*ast.ThrowStatement); ok {
			t.Fatalf("control edge leaves a throw statement into %T", e.To)
		}
		if _, ok := e.From.(*ast.BreakStatement); ok {
			t.Fatalf("control edge leaves a break statement into %T", e.To)
		}
	}
	// The IIFE and arrow bodies must participate in control flow: at least
	// one edge originates at each function-expression body.
	var fnBodies int
	for _, e := range g.Control {
		switch e.From.(type) {
		case *ast.FunctionExpression, *ast.ArrowFunctionExpression:
			fnBodies++
		}
	}
	if fnBodies < 2 {
		t.Fatalf("function/arrow expression bodies wired %d times, want >= 2", fnBodies)
	}
}

// TestGraphInvariantsControlFlowOnly checks the SkipDataFlow and timeout
// fallback paths keep the same control-flow invariants.
func TestGraphInvariantsControlFlowOnly(t *testing.T) {
	src := corpus.GenerateRegular(rand.New(rand.NewSource(9)))
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	g := NewSession().Build(prog, Options{SkipDataFlow: true})
	checkGraphInvariants(t, g, prog, "skip-data-flow")
	if len(g.Data) != 0 || g.Scopes != nil {
		t.Fatalf("SkipDataFlow graph carries data flow: %d edges", len(g.Data))
	}

	// A 1ns deadline has expired by the time the post-walk check runs
	// (negative/zero deadlines mean "use the default", so the smallest
	// positive duration is the way to force the fallback).
	g = NewSession().Build(prog, Options{DataFlowDeadline: time.Nanosecond})
	checkGraphInvariants(t, g, prog, "expired-deadline")
	if !g.DataFlowTimedOut {
		t.Fatal("expired deadline did not set DataFlowTimedOut")
	}
	if len(g.Data) != 0 {
		t.Fatalf("timed-out graph carries %d data edges", len(g.Data))
	}
}
