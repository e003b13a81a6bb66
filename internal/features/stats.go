package features

import (
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/analysis"
	"repro/internal/js/ast"
	"repro/internal/js/scope"
)

// stats aggregates the raw AST counts the hand-picked features are computed
// from.
type stats struct {
	nodes   int
	depth   int
	breadth int

	identCount    int
	identChars    int
	uniqueIdents  int
	hexIdents     int
	shortIdents   int
	identCharHist [128]int

	literalCount   int
	stringCount    int
	stringChars    int
	numberCount    int
	regexCount     int
	stringCharHist [128]int
	encodedStrings int
	base64Strings  int

	callCount       int
	memberCount     int
	bracketMember   int
	ternaryCount    int
	binaryCount     int
	strConcat       int
	arrayCount      int
	arrayElems      int
	switchCount     int
	caseCount       int
	whileTrueSwitch int
	pipeSplit       int
	debuggerCount   int
	debuggerStrings int
	emptyCatch      int
	funcCount       int
	functionCtor    int
	stringOps       int
	numericArgCalls int
	maxExprNesting  int
	largestStrArray int

	// fetchedFromArrays is the prop_vars_fetched_from_arrays feature: the
	// share of bindings initialized with an array or object literal that
	// some reference reads as the object of a computed member access.
	fetchedFromArrays float64

	builtins map[string]bool
}

var stringOpNames = map[string]bool{
	"split": true, "join": true, "reverse": true, "concat": true,
	"replace": true, "charCodeAt": true, "charAt": true, "substring": true,
	"substr": true, "slice": true, "indexOf": true, "fromCharCode": true,
	"toString": true, "trim": true, "toLowerCase": true, "toUpperCase": true,
}

var builtinNames = map[string]bool{
	"eval": true, "atob": true, "btoa": true, "escape": true, "unescape": true,
	"decodeURIComponent": true, "decodeURI": true, "encodeURIComponent": true,
	"setInterval": true, "setTimeout": true, "Function": true,
	"parseInt": true, "parseFloat": true,
}

// statsCollector holds the reusable scratch state of one collectStats run:
// the seen-identifier set, the per-depth node counts, the computed-object
// marks, and the walk cursor.
// Instances recycle through statsCollectorPool so the per-file cost is one
// allocation for the returned stats value; the traversal itself runs over
// ast.EachChild with a visit closure bound once per instance, so it neither
// builds child slices (as ast.Children would) nor allocates closures per call.
type statsCollector struct {
	st          *stats
	names       map[string]bool
	levelCounts []int
	// computedObj marks, by NodeID, the identifiers that appear as the
	// object of a computed member access (arr[i]).
	computedObj []bool
	depth       int
	exprNesting int
	visit       func(ast.Node)
}

var statsCollectorPool = sync.Pool{New: func() any {
	c := &statsCollector{
		names:       make(map[string]bool, 256),
		levelCounts: make([]int, 0, 64),
	}
	c.visit = c.visitNode
	return c
}}

// collectStats tallies prog in one walk. info is the flow graph's scope
// result (nil when data flow was skipped); its bindings are read against the
// walk's computed-object marks, which index the tree's stamped NodeIDs.
func collectStats(prog *ast.Program, info *scope.Info) *stats {
	c := statsCollectorPool.Get().(*statsCollector)
	st := &stats{builtins: make(map[string]bool)}
	c.st = st
	c.depth = 0
	c.exprNesting = 0
	// slices.Grow keeps append's amortized growth, so a worker's run of
	// ever-larger files does not reallocate the marks once per file.
	c.computedObj = slices.Grow(c.computedObj[:0], int(prog.NodeCount))[:prog.NodeCount]
	c.visit(prog)

	st.uniqueIdents = len(c.names)
	for _, cnt := range c.levelCounts {
		if cnt > st.breadth {
			st.breadth = cnt
		}
	}
	st.fetchedFromArrays = c.arrayFetchRatio(info)

	clear(c.names)
	clear(c.computedObj)
	for i := range c.levelCounts {
		c.levelCounts[i] = 0
	}
	c.levelCounts = c.levelCounts[:0]
	c.st = nil
	statsCollectorPool.Put(c)
	return st
}

// arrayFetchRatio estimates, from the data flow, the fraction of variables
// fetched from array/dictionary structures: bindings initialized with an
// array or object literal whose references occur as the object of a
// computed member access.
func (c *statsCollector) arrayFetchRatio(info *scope.Info) float64 {
	if info == nil || len(info.Bindings) == 0 {
		return 0
	}
	fetched := 0
	for _, b := range info.Bindings {
		switch b.Init.(type) {
		case *ast.ArrayExpression, *ast.ObjectExpression:
		default:
			continue
		}
		for _, ref := range b.Refs {
			if c.isComputedObj(ref) {
				fetched++
				break
			}
		}
	}
	return float64(fetched) / float64(len(info.Bindings))
}

// isComputedObj reports whether the walk marked id. Slot 0 is the Program
// root's, so an unstamped identifier never reads as marked.
func (c *statsCollector) isComputedObj(id *ast.Identifier) bool {
	nid := int(id.NodeID())
	return nid > 0 && nid < len(c.computedObj) && c.computedObj[nid]
}

// visitNode tallies one node into the run's stats and recurses through the
// pre-bound c.visit method value (passing visitNode itself would allocate a
// bound closure per node). Its allocation budget is the amortized growth of
// the pooled scratch state — append into levelCounts, inserts into the reused
// maps — which a warmed pool never pays.
//
//jslint:hotpath
func (c *statsCollector) visitNode(n ast.Node) {
	st := c.st
	st.nodes++
	// Depth-first order means depth can exceed the recorded levels by at
	// most one, so a single append keeps levelCounts indexed by depth.
	if c.depth == len(c.levelCounts) {
		c.levelCounts = append(c.levelCounts, 0)
	}
	c.levelCounts[c.depth]++
	if c.depth > st.depth {
		st.depth = c.depth
	}

	isExpr := !ast.IsStatement(n)
	if isExpr {
		c.exprNesting++
		if c.exprNesting > st.maxExprNesting {
			st.maxExprNesting = c.exprNesting
		}
	}

	switch v := n.(type) {
	case *ast.Identifier:
		st.identCount++
		st.identChars += len(v.Name)
		c.names[v.Name] = true
		if strings.HasPrefix(v.Name, "_0x") {
			st.hexIdents++
		}
		if len(v.Name) <= 2 {
			st.shortIdents++
		}
		for i := 0; i < len(v.Name); i++ {
			if v.Name[i] < 128 {
				st.identCharHist[v.Name[i]]++
			}
		}
		if builtinNames[v.Name] {
			st.builtins[v.Name] = true
		}
		if v.Name == "Function" {
			st.functionCtor++
		}
	case *ast.Literal:
		st.literalCount++
		switch v.Kind {
		case ast.LiteralString:
			st.stringCount++
			st.stringChars += len(v.String)
			for i := 0; i < len(v.String); i++ {
				if v.String[i] < 128 {
					st.stringCharHist[v.String[i]]++
				}
			}
			if looksEncoded(v.String) {
				st.encodedStrings++
			}
			if looksBase64(v.String) {
				st.base64Strings++
			}
			if v.String == "debugger" {
				st.debuggerStrings++
			}
		case ast.LiteralNumber:
			st.numberCount++
		case ast.LiteralRegExp:
			st.regexCount++
		}
	case *ast.CallExpression:
		st.callCount++
		if m, ok := v.Callee.(*ast.MemberExpression); ok && !m.Computed {
			if id, ok := m.Property.(*ast.Identifier); ok {
				if stringOpNames[id.Name] {
					st.stringOps++
				}
				if id.Name == "fromCharCode" {
					st.builtins["fromCharCode"] = true
				}
				if id.Name == "split" && len(v.Arguments) == 1 {
					if lit, ok := v.Arguments[0].(*ast.Literal); ok && lit.Kind == ast.LiteralString && lit.String == "|" {
						st.pipeSplit++
					}
				}
				if id.Name == "constructor" {
					st.functionCtor++
				}
			}
		}
		if len(v.Arguments) == 1 {
			if lit, ok := v.Arguments[0].(*ast.Literal); ok && lit.Kind == ast.LiteralNumber {
				if _, isID := v.Callee.(*ast.Identifier); isID {
					st.numericArgCalls++
				}
			}
		}
	case *ast.MemberExpression:
		st.memberCount++
		if v.Computed {
			st.bracketMember++
			if id, ok := v.Object.(*ast.Identifier); ok {
				if nid := int(id.NodeID()); nid < len(c.computedObj) {
					c.computedObj[nid] = true
				}
			}
		}
		if id, ok := v.Property.(*ast.Identifier); ok && !v.Computed && id.Name == "constructor" {
			st.functionCtor++
		}
	case *ast.ConditionalExpression:
		st.ternaryCount++
	case *ast.BinaryExpression:
		st.binaryCount++
		if v.Operator == "+" {
			if isStringLit(v.Left) || isStringLit(v.Right) {
				st.strConcat++
			}
		}
	case *ast.ArrayExpression:
		st.arrayCount++
		st.arrayElems += len(v.Elements)
		strElems := 0
		for _, el := range v.Elements {
			if isStringLit(el) {
				strElems++
			}
		}
		if strElems > st.largestStrArray {
			st.largestStrArray = strElems
		}
	case *ast.SwitchStatement:
		st.switchCount++
		st.caseCount += len(v.Cases)
	case *ast.WhileStatement:
		if lit, ok := v.Test.(*ast.Literal); ok && lit.Kind == ast.LiteralBoolean && lit.Bool {
			if blk, ok := v.Body.(*ast.BlockStatement); ok {
				for _, s := range blk.Body {
					if _, ok := s.(*ast.SwitchStatement); ok {
						st.whileTrueSwitch++
					}
				}
			}
		}
	case *ast.DebuggerStatement:
		st.debuggerCount++
	case *ast.TryStatement:
		if v.Handler != nil && v.Handler.Body != nil && len(v.Handler.Body.Body) == 0 {
			st.emptyCatch++
		}
	case *ast.FunctionDeclaration, *ast.FunctionExpression, *ast.ArrowFunctionExpression:
		st.funcCount++
	case *ast.NewExpression:
		if id, ok := v.Callee.(*ast.Identifier); ok && id.Name == "Function" {
			st.functionCtor++
		}
	}

	c.depth++
	ast.EachChild(n, c.visit)
	c.depth--
	if isExpr {
		c.exprNesting--
	}
}

func isStringLit(n ast.Node) bool {
	lit, ok := n.(*ast.Literal)
	return ok && lit.Kind == ast.LiteralString
}

// looksEncoded and looksBase64 delegate to the canonical definitions shared
// with the static indicator rules in internal/analysis.

func looksEncoded(s string) bool { return analysis.LooksEncoded(s) }

func looksBase64(s string) bool { return analysis.LooksBase64(s) }

// identEntropy is the Shannon entropy of the identifier character
// distribution, normalized to [0, 1].
func (st *stats) identEntropy() float64 {
	return entropy(st.identCharHist[:])
}

// stringEntropy is the Shannon entropy of string literal characters,
// normalized to [0, 1].
func (st *stats) stringEntropy() float64 {
	return entropy(st.stringCharHist[:])
}

func entropy(hist []int) float64 {
	total := 0
	for _, c := range hist {
		total += c
	}
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range hist {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h / 7 // log2(128) = 7 normalizes to [0, 1]
}
