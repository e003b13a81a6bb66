package transform

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/js/ast"
	"repro/internal/js/parser"
	"repro/internal/js/walker"
)

const sample = `
// Shopping cart module.
var TAX_RATE = 0.19;
var cart = [];

function addItem(name, price, quantity) {
  if (quantity === undefined) {
    quantity = 1;
  }
  cart.push({name: name, price: price, quantity: quantity});
  return cart.length;
}

function totalPrice() {
  var total = 0;
  for (var i = 0; i < cart.length; i++) {
    var item = cart[i];
    total += item.price * item.quantity;
  }
  if (total > 100) {
    total = total * 0.95;
  } else {
    total = total * 1.0;
  }
  return total * (1 + TAX_RATE);
}

function describe() {
  var parts = [];
  cart.forEach(function (item) {
    parts.push(item.name + " x" + item.quantity);
  });
  return "Cart: " + parts.join(", ");
}

addItem("apple", 1.2, 3);
addItem("bread", 2.5, 1);
console.log(describe(), totalPrice());
`

func applyTechnique(t *testing.T, tech Technique, src string) string {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	out, err := Transform(src, rng, tech)
	if err != nil {
		t.Fatalf("transform %s: %v", tech, err)
	}
	if out == "" {
		t.Fatalf("%s produced empty output", tech)
	}
	if _, err := parser.ParseProgram(out); err != nil {
		snippet := out
		if len(snippet) > 400 {
			snippet = snippet[:400] + "..."
		}
		t.Fatalf("%s output does not reparse: %v\n%s", tech, err, snippet)
	}
	return out
}

func TestEveryTechniqueReparses(t *testing.T) {
	for _, tech := range append(append([]Technique{}, Techniques...), Packer) {
		t.Run(tech.String(), func(t *testing.T) {
			applyTechnique(t, tech, sample)
		})
	}
}

func TestIdentifierObfuscationRenamesBindings(t *testing.T) {
	out := applyTechnique(t, IdentifierObfuscation, sample)
	for _, name := range []string{"addItem", "totalPrice", "TAX_RATE", "cart"} {
		if strings.Contains(out, name) {
			t.Fatalf("binding %q must be renamed; output still contains it", name)
		}
	}
	// Property keys are not bindings and must survive the renaming.
	if !strings.Contains(out, "quantity:") {
		t.Fatal("object literal key must be preserved")
	}
	if !strings.Contains(out, "_0x") {
		t.Fatal("expected hex-style identifiers")
	}
	// Globals and properties must survive.
	for _, keep := range []string{"console", "push", "forEach", "join"} {
		if !strings.Contains(out, keep) {
			t.Fatalf("%q must be preserved", keep)
		}
	}
}

func TestStringObfuscationHidesStrings(t *testing.T) {
	out := applyTechnique(t, StringObfuscation, sample)
	if strings.Contains(out, `"apple"`) || strings.Contains(out, `"bread"`) {
		t.Fatal("plain string literals must be hidden")
	}
}

func TestGlobalArrayHoistsStrings(t *testing.T) {
	out := applyTechnique(t, GlobalArray, sample)
	if strings.Contains(out, `"apple", 1.2`) {
		t.Fatal("string literal still used inline")
	}
	prog, err := parser.ParseProgram(out)
	if err != nil {
		t.Fatal(err)
	}
	// First non-directive statement must be the array declaration.
	decl, ok := prog.Body[0].(*ast.VariableDeclaration)
	if !ok {
		t.Fatalf("first statement = %s, want VariableDeclaration", prog.Body[0].Type())
	}
	arr, ok := decl.Declarations[0].Init.(*ast.ArrayExpression)
	if !ok {
		t.Fatal("expected array initializer")
	}
	if len(arr.Elements) < 3 {
		t.Fatalf("array has %d elements, want the hoisted strings", len(arr.Elements))
	}
}

func TestNoAlphanumericUsesOnlySixCharacters(t *testing.T) {
	out := applyTechnique(t, NoAlphanumeric, `console.log("hi");`)
	for i := 0; i < len(out); i++ {
		switch out[i] {
		case '[', ']', '(', ')', '!', '+':
		default:
			t.Fatalf("output contains forbidden character %q at %d", out[i], i)
		}
	}
	if len(out) < 1000 {
		t.Fatalf("suspiciously small JSFuck output: %d bytes", len(out))
	}
}

func TestDeadCodeInjectionGrowsProgram(t *testing.T) {
	// The parser's ID stamping counts every node of the tree.
	progBefore, _ := parser.ParseProgram(sample)
	before := progBefore.NodeCount
	out := applyTechnique(t, DeadCodeInjection, sample)
	progAfter, _ := parser.ParseProgram(out)
	if after := progAfter.NodeCount; after <= before {
		t.Fatalf("dead code must grow the AST: %d -> %d", before, after)
	}
}

func TestControlFlowFlatteningAddsDispatcher(t *testing.T) {
	out := applyTechnique(t, ControlFlowFlattening, sample)
	prog, err := parser.ParseProgram(out)
	if err != nil {
		t.Fatal(err)
	}
	var hasDispatcher bool
	walker.Walk(prog, func(n ast.Node, _ int) bool {
		if w, ok := n.(*ast.WhileStatement); ok {
			if lit, ok := w.Test.(*ast.Literal); ok && lit.Kind == ast.LiteralBoolean && lit.Bool {
				if blk, ok := w.Body.(*ast.BlockStatement); ok && len(blk.Body) >= 1 {
					if _, ok := blk.Body[0].(*ast.SwitchStatement); ok {
						hasDispatcher = true
					}
				}
			}
		}
		return true
	})
	if !hasDispatcher {
		t.Fatal("expected while(true){switch...} dispatcher")
	}
	if !strings.Contains(out, `.split("|")`) {
		t.Fatal("expected order string split")
	}
}

func TestSelfDefendingInjectsGuard(t *testing.T) {
	out := applyTechnique(t, SelfDefending, sample)
	if !strings.Contains(out, "constructor") {
		t.Fatal("expected Function-constructor guard")
	}
	if strings.Contains(out, "\n") {
		t.Fatal("self-defending output must be minified (single line)")
	}
}

func TestDebugProtectionInjectsDebuggerLoop(t *testing.T) {
	out := applyTechnique(t, DebugProtection, sample)
	if !strings.Contains(out, `"debugger"`) {
		t.Fatal("expected constructor(\"debugger\") calls")
	}
	if !strings.Contains(out, "setInterval") {
		t.Fatal("expected the periodic re-trigger")
	}
}

func TestMinifySimpleShrinksAndRenames(t *testing.T) {
	out := applyTechnique(t, MinifySimple, sample)
	if len(out) >= len(sample) {
		t.Fatalf("minified output must shrink: %d -> %d", len(sample), len(out))
	}
	if strings.Contains(out, "\n") {
		t.Fatal("minified output must not contain newlines")
	}
	if strings.Contains(out, "totalPrice") {
		t.Fatal("identifiers must be shortened")
	}
	if strings.Contains(out, "// Shopping") {
		t.Fatal("comments must be removed")
	}
}

func TestMinifyAdvancedFoldsConstants(t *testing.T) {
	src := `var x = 2 * 3 + 4; var s = "a" + "b"; if (cond) { y = 1; } else { y = 2; } var b = true;`
	out := applyTechnique(t, MinifyAdvanced, src)
	if !strings.Contains(out, "10") {
		t.Fatalf("2*3+4 must fold to 10: %s", out)
	}
	if !strings.Contains(out, `"ab"`) {
		t.Fatalf(`"a"+"b" must fold to "ab": %s`, out)
	}
	if !strings.Contains(out, "?") {
		t.Fatalf("if/else must become ternary: %s", out)
	}
	if !strings.Contains(out, "!0") {
		t.Fatalf("true must become !0: %s", out)
	}
}

func TestMinifyAdvancedRemovesUnreachable(t *testing.T) {
	src := `function f() { return 1; console.log("dead"); }`
	out := applyTechnique(t, MinifyAdvanced, src)
	if strings.Contains(out, "dead") {
		t.Fatalf("unreachable code must be removed: %s", out)
	}
}

func TestPackerShape(t *testing.T) {
	out := applyTechnique(t, Packer, sample)
	if !strings.HasPrefix(out, "eval(function(p,a,c,k,e,d)") {
		t.Fatalf("packer output must start with the eval wrapper: %.60s", out)
	}
	if !strings.Contains(out, ".split('|')") {
		t.Fatal("expected the word table")
	}
}

func TestCombinedTechniques(t *testing.T) {
	combos := [][]Technique{
		{IdentifierObfuscation, MinifySimple},
		{StringObfuscation, GlobalArray, MinifyAdvanced},
		{DeadCodeInjection, ControlFlowFlattening, IdentifierObfuscation},
		{GlobalArray, DebugProtection, MinifySimple},
		{StringObfuscation, SelfDefending},
	}
	for _, combo := range combos {
		names := make([]string, len(combo))
		for i, c := range combo {
			names[i] = c.String()
		}
		t.Run(strings.Join(names, "+"), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			out, err := Transform(sample, rng, combo...)
			if err != nil {
				t.Fatalf("combo: %v", err)
			}
			if _, err := parser.ParseProgram(out); err != nil {
				t.Fatalf("combo output does not reparse: %v", err)
			}
		})
	}
}

func TestTransformDeterministic(t *testing.T) {
	for _, tech := range Techniques {
		a, err := Transform(sample, rand.New(rand.NewSource(99)), tech)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Transform(sample, rand.New(rand.NewSource(99)), tech)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("%s is not deterministic under a fixed seed", tech)
		}
	}
}

func TestParseTechnique(t *testing.T) {
	for _, tech := range append(append([]Technique{}, Techniques...), Packer) {
		got, err := ParseTechnique(tech.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != tech {
			t.Fatalf("round-trip failed for %s", tech)
		}
	}
	if _, err := ParseTechnique("nope"); err == nil {
		t.Fatal("expected error for unknown name")
	}
}

func TestShortName(t *testing.T) {
	tests := map[int]string{0: "a", 1: "b", 25: "z", 26: "A", 51: "Z", 52: "aa", 53: "ab"}
	for i, want := range tests {
		if got := shortName(i); got != want {
			t.Fatalf("shortName(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestBase62(t *testing.T) {
	tests := map[int]string{0: "0", 9: "9", 10: "a", 35: "z", 36: "A", 61: "Z", 62: "10"}
	for i, want := range tests {
		if got := base62(i); got != want {
			t.Fatalf("base62(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestFieldReferenceRewrites(t *testing.T) {
	out := applyTechnique(t, FieldReference, sample)
	if strings.Contains(out, "cart.push") {
		t.Fatal("dot accesses must become bracket accesses")
	}
	if !strings.Contains(out, `cart["`) {
		t.Fatalf("expected bracketed property access, got:\n%.300s", out)
	}
}
