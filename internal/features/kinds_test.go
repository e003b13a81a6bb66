package features

import (
	"testing"

	"repro/internal/js/ast"
	"repro/internal/js/parser"
)

// TestKindStreamMatchesWalk locks the contract the zero-walk n-gram path
// rests on: the parser's NodeID-stamping pass records exactly the pre-order
// kind stream of an ast.EachChild walk, so any divergence means a
// child-order bug in the stamper.
func TestKindStreamMatchesWalk(t *testing.T) {
	files := goldenFixtures(t)
	for _, f := range files {
		res, err := parser.ParseNoTokens(f.Source)
		if err != nil {
			t.Fatalf("%s: parse: %v", f.Name, err)
		}
		if res.Kinds == nil {
			t.Fatalf("%s: parser did not record a kind stream", f.Name)
		}
		var seq []uint16
		var visit func(ast.Node)
		visit = func(n ast.Node) {
			seq = append(seq, uint16(n.NodeKind()))
			ast.EachChild(n, visit)
		}
		visit(res.Program)
		if len(res.Kinds) != len(seq) {
			t.Fatalf("%s: parser stream has %d kinds, walk has %d",
				f.Name, len(res.Kinds), len(seq))
		}
		for i := range seq {
			if res.Kinds[i] != seq[i] {
				t.Fatalf("%s: kind stream diverges at %d: parser %d, walk %d",
					f.Name, i, res.Kinds[i], seq[i])
			}
		}
	}
}
