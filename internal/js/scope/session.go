package scope

import (
	"repro/internal/js/ast"
)

// Session is a reusable scope analyzer. A Session analyzes one program at a
// time and recycles every piece of working storage across runs — the dense
// resolution table, the scope and binding slabs, the reference store, and
// the control-edge buffer — so a scan worker that analyzes many files pays
// steady-state zero allocations for the whole scope/flow plane.
//
// Hard reset contract (mirroring parser.Session): reset re-arms every slab
// and buffer before a run, and the Info returned by Analyze/AnalyzeFlow
// aliases that storage — it is valid only until the next call on the same
// Session. The zero value is NOT ready to use; call NewSession. Sessions are
// not safe for concurrent use.
type Session struct {
	a analyzer
}

// NewSession returns an empty scope analysis session.
func NewSession() *Session {
	s := &Session{}
	s.a.descend = s.a.visit
	return s
}

// Analyze builds scope information for a program, reusing the session's
// pooled storage. The tree's NodeIDs are re-stamped unconditionally (safe
// on freshly mutated trees). The result is invalidated by the next call.
func (s *Session) Analyze(prog *ast.Program) *Info {
	if s.a.stamper == nil {
		s.a.stamper = ast.NewIDStamper()
	}
	s.a.stamper.StampIDs(prog)
	return s.a.run(prog, false)
}

// AnalyzeFlow is the fused entry point for the flow layer: one walk that
// both analyzes scopes and emits control-flow edges. It trusts an existing
// stamping (Program.NodeCount > 0) and stamps only unstamped trees — the
// parser stamps every tree it produces, so the steady-state path never
// re-walks. Both returned values alias session storage and are invalidated
// by the next call.
func (s *Session) AnalyzeFlow(prog *ast.Program) (*Info, []Edge) {
	if prog.NodeCount == 0 {
		if s.a.stamper == nil {
			s.a.stamper = ast.NewIDStamper()
		}
		s.a.stamper.StampIDs(prog)
	}
	info := s.a.run(prog, true)
	return info, s.a.control
}

// refPair records one (binding, reference) hit in walk order; finalizeRefs
// counting-sorts the pairs into per-binding sub-slices of one shared store.
type refPair struct {
	b  *Binding
	id *ast.Identifier
}

// analyzer holds the session storage plus the walk state of the run in
// progress. The walk state (sc, wire, collectControl) lives in fields
// rather than parameters so the default-descent hook can be a pre-bound
// func field instead of a per-node closure.
type analyzer struct {
	// Pooled storage, reset per run.
	resolved    []*Binding
	refPairs    []refPair
	refStore    []*ast.Identifier
	unresolved  []*ast.Identifier
	bindings    []*Binding
	control     []Edge
	scopes      scopeSlab
	bindingSlab bindingSlab
	stamper     *ast.IDStamper

	// Walk state.
	sc             *Scope
	wire           bool
	collectControl bool
	descend        func(ast.Node)
	info           *Info
}

// run performs the fused walk and assembles the Info.
func (a *analyzer) run(prog *ast.Program, collectControl bool) *Info {
	a.reset(int(prog.NodeCount))
	a.collectControl = collectControl
	info := &Info{}
	a.info = info
	global := a.newScope(prog, true)
	info.Global = global
	a.sc = global
	a.wire = collectControl
	// Pass 1 over the top level: hoist declarations so forward references
	// resolve. Nested function bodies run their own pass 1 when the walk
	// reaches them, exactly like the refspec analyzer.
	a.collectDecls(prog.Body, global)
	a.visitStmts(prog, prog.Body)
	a.finalizeRefs()
	info.Bindings = a.bindings
	info.Unresolved = a.unresolved
	info.resolved = a.resolved
	a.sc = nil
	a.info = nil
	return info
}

// reset re-arms every buffer and slab for a tree of n nodes. This is the
// session's hard reset: nothing recorded for the previous file survives it,
// and everything the previous Info pointed at is about to be overwritten.
func (a *analyzer) reset(n int) {
	if n < 1 {
		n = 1
	}
	if cap(a.resolved) < n {
		a.resolved = make([]*Binding, n)
	} else {
		a.resolved = a.resolved[:n]
		clear(a.resolved)
	}
	a.refPairs = a.refPairs[:0]
	a.unresolved = a.unresolved[:0]
	a.bindings = a.bindings[:0]
	a.control = a.control[:0]
	a.scopes.reset()
	a.bindingSlab.reset()
}

// newScope allocates a scope from the slab.
func (a *analyzer) newScope(node ast.Node, isFunc bool) *Scope {
	sc := a.scopes.alloc()
	sc.Node = node
	sc.IsFunction = isFunc
	return sc
}

// newChild allocates a child of the current scope.
func (a *analyzer) newChild(node ast.Node, isFunc bool) *Scope {
	sc := a.newScope(node, isFunc)
	sc.Parent = a.sc
	a.sc.Children = append(a.sc.Children, sc)
	return sc
}

// declare records a binding for id in sc (hoisting var/function kinds to
// the nearest function scope). Redeclaration keeps the first binding and
// treats this occurrence as a reference, so renames cover the redeclaration
// site too.
func (a *analyzer) declare(sc *Scope, id *ast.Identifier, kind BindingKind, init ast.Node) *Binding {
	target := sc
	if kind == BindVar || kind == BindFunction {
		target = sc.hoistTarget()
	}
	if existing := target.Binding(id.Name); existing != nil {
		a.resolve(id, existing)
		a.recordRef(existing, id)
		if existing.Init == nil {
			existing.Init = init
		}
		return existing
	}
	b := a.bindingSlab.alloc()
	b.Name = id.Name
	b.Decl = id
	b.Kind = kind
	b.Scope = target
	b.Init = init
	target.insert(b)
	a.bindings = append(a.bindings, b)
	return b
}

// reference resolves id in the current scope chain, or records it as
// unresolved.
//
//jslint:hotpath
func (a *analyzer) reference(id *ast.Identifier) {
	if b := a.sc.lookup(id.Name); b != nil {
		a.resolve(id, b)
		a.recordRef(b, id)
		return
	}
	a.unresolved = append(a.unresolved, id)
}

// resolve stores the id→binding resolution in the dense table. Slot 0 is
// the Program root's and is left nil on purpose: an unstamped identifier
// (NodeID 0, from a tree mutated after stamping) must read as unresolved,
// not as whatever was written last.
//
//jslint:hotpath
func (a *analyzer) resolve(id *ast.Identifier, b *Binding) {
	nid := id.NodeID()
	if nid == 0 || int(nid) >= len(a.resolved) {
		return
	}
	a.resolved[nid] = b
}

// recordRef logs one reference hit; finalizeRefs materializes Binding.Refs.
//
//jslint:hotpath
func (a *analyzer) recordRef(b *Binding, id *ast.Identifier) {
	a.refPairs = append(a.refPairs, refPair{b: b, id: id})
	b.refLen++
}

// edge appends one control edge (nil endpoints are skipped, matching the
// original cfg builder).
//
//jslint:hotpath
func (a *analyzer) edge(from, to ast.Node) {
	if from == nil || to == nil {
		return
	}
	a.control = append(a.control, Edge{From: from, To: to})
}

// edgeIfWired appends a control edge only when the walk is in a wired
// control region.
//
//jslint:hotpath
func (a *analyzer) edgeIfWired(from, to ast.Node) {
	if a.collectControl && a.wire {
		a.edge(from, to)
	}
}

// finalizeRefs counting-sorts the walk's (binding, ref) pairs into
// per-binding contiguous sub-slices of one shared store: first carve each
// binding's empty window from the store using its refLen, then replay the
// pairs in walk order — append fills each window without allocating, and
// per-binding reference order matches the refspec analyzer exactly.
func (a *analyzer) finalizeRefs() {
	total := len(a.refPairs)
	if cap(a.refStore) < total {
		a.refStore = make([]*ast.Identifier, 0, total)
	}
	store := a.refStore[:0]
	off := 0
	for _, b := range a.bindings {
		n := int(b.refLen)
		b.Refs = store[off : off : off+n]
		off += n
	}
	for _, p := range a.refPairs {
		p.b.Refs = append(p.b.Refs, p.id)
	}
	a.refStore = store
}

// Slab chunk sizing for the scope/binding slabs: like the AST arena, chunks
// double from slabChunkMin up to slabChunkMax and are never moved — alloc
// hands out interior pointers, so a filled chunk is kept and a fresh one
// appended.
const (
	slabChunkMin = 64
	slabChunkMax = 1024
)

// scopeSlab is a chunked allocator of Scope values. reset recycles every
// chunk in place, preserving each scope's Children/bindings capacity and
// its (cleared) byName map, so steady-state analysis allocates no scope
// storage at all.
type scopeSlab struct {
	chunks [][]Scope
}

//jslint:hotpath
func (s *scopeSlab) alloc() *Scope {
	n := len(s.chunks)
	if n == 0 || len(s.chunks[n-1]) == cap(s.chunks[n-1]) {
		s.grow()
		n = len(s.chunks)
	}
	c := s.chunks[n-1]
	c = c[:len(c)+1]
	s.chunks[n-1] = c
	return &c[len(c)-1]
}

func (s *scopeSlab) grow() {
	capNext := slabChunkMin
	if n := len(s.chunks); n > 0 {
		capNext = 2 * cap(s.chunks[n-1])
		if capNext > slabChunkMax {
			capNext = slabChunkMax
		}
	}
	s.chunks = append(s.chunks, make([]Scope, 0, capNext))
}

// reset recycles every used scope. Fields that pin per-file memory (AST
// nodes via Node, the parent/child web, binding pointers, map keys) are
// cleared; slice capacities and map buckets are retained for reuse.
func (s *scopeSlab) reset() {
	for ci := range s.chunks {
		c := s.chunks[ci]
		for i := range c {
			sc := &c[i]
			sc.Node = nil
			sc.Parent = nil
			sc.Children = sc.Children[:0]
			sc.IsFunction = false
			sc.bindings = sc.bindings[:0]
			if sc.byName != nil {
				clear(sc.byName)
			}
		}
		s.chunks[ci] = c[:0]
	}
}

// bindingSlab is a chunked allocator of Binding values; alloc returns
// zeroed bindings (reset zeroes in bulk, and Binding retains no reusable
// capacity worth preserving — Refs alias the shared ref store).
type bindingSlab struct {
	chunks [][]Binding
}

//jslint:hotpath
func (s *bindingSlab) alloc() *Binding {
	n := len(s.chunks)
	if n == 0 || len(s.chunks[n-1]) == cap(s.chunks[n-1]) {
		s.grow()
		n = len(s.chunks)
	}
	c := s.chunks[n-1]
	c = c[:len(c)+1]
	s.chunks[n-1] = c
	return &c[len(c)-1]
}

func (s *bindingSlab) grow() {
	capNext := slabChunkMin
	if n := len(s.chunks); n > 0 {
		capNext = 2 * cap(s.chunks[n-1])
		if capNext > slabChunkMax {
			capNext = slabChunkMax
		}
	}
	s.chunks = append(s.chunks, make([]Binding, 0, capNext))
}

func (s *bindingSlab) reset() {
	for ci := range s.chunks {
		c := s.chunks[ci]
		clear(c)
		s.chunks[ci] = c[:0]
	}
}
