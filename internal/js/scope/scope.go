// Package scope performs lexical scope analysis over the JavaScript AST:
// it builds the scope tree, records variable bindings (var hoisting, let and
// const block scoping, parameters, function and class names, catch
// parameters, imports), and resolves every identifier reference to its
// binding. The identifier renaming transformers and the data-flow
// construction both build on this analysis.
//
// The analyzer is a single fused walk over a NodeID-stamped tree: one
// traversal resolves references, builds the scope tree, and (when asked by
// the flow layer) emits the control-flow edges that used to require a
// second walk. Resolution is stored in a dense NodeID-indexed slice instead
// of a pointer-keyed map, and scopes use slice-backed binding tables (most
// scopes hold a handful of names) that promote to a map only when a scope
// grows large. The original map-based two-walk analyzer survives as the
// executable spec in internal/js/scope/refspec, and differential tests
// assert both produce identical binding/reference/edge sets.
//
// Ownership: Analyze returns a self-contained Info (its fresh session's
// storage becomes the Info's). Session.Analyze and Session.AnalyzeFlow
// return an Info backed by pooled session storage that is valid only until
// the next call on the same Session; callers consume it before then.
package scope

import (
	"repro/internal/js/ast"
)

// BindingKind classifies how a name was introduced.
type BindingKind int

// Binding kinds.
const (
	BindVar BindingKind = iota + 1
	BindLet
	BindConst
	BindParam
	BindFunction
	BindClass
	BindCatch
	BindImport
)

// Binding is one declared name.
type Binding struct {
	Name string
	// Decl is the declaring Identifier node (nil for synthetic bindings).
	Decl *ast.Identifier
	Kind BindingKind
	// Scope is the scope owning the binding.
	Scope *Scope
	// Refs are all identifier nodes that reference this binding (reads and
	// writes), excluding the declaration itself. For session-backed Info
	// the slice aliases pooled storage.
	Refs []*ast.Identifier
	// Init is the initializer expression when the binding came from a
	// declarator with one (used by features: e.g. "fetched from a global
	// array").
	Init ast.Node

	// refLen counts refs during the walk; finalizeRefs carves Refs from the
	// shared store with it. After analysis it equals len(Refs).
	refLen int32
}

// Scope is one lexical scope.
type Scope struct {
	// Node is the AST node that owns the scope (Program, function, block,
	// for statement, or catch clause).
	Node ast.Node
	// Parent is nil for the program scope.
	Parent *Scope
	// Children in source order.
	Children []*Scope
	// IsFunction marks scopes that host `var` declarations.
	IsFunction bool

	// bindings lists the scope's own bindings in declaration order. Small
	// scopes are looked up by linear scan; byName is built lazily once the
	// scope outgrows scopePromoteAt (huge flat obfuscated scopes).
	bindings []*Binding
	// byName, when non-nil, indexes every binding in bindings.
	byName map[string]*Binding
}

// scopePromoteAt is the own-binding count above which a scope switches from
// linear scan to a name map. Linear scan over a few entries beats a map
// probe; a thousand-entry obfuscated top scope does not.
const scopePromoteAt = 16

// Binding returns the binding declared directly in this scope under name,
// or nil. (Use Info.BindingOf to resolve a reference through the chain.)
//
//jslint:hotpath
func (s *Scope) Binding(name string) *Binding {
	if s.byName != nil {
		return s.byName[name]
	}
	for _, b := range s.bindings {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// Bindings returns the scope's own bindings in declaration order.
func (s *Scope) Bindings() []*Binding { return s.bindings }

// lookup resolves name through the scope chain.
//
//jslint:hotpath
func (s *Scope) lookup(name string) *Binding {
	for sc := s; sc != nil; sc = sc.Parent {
		if b := sc.Binding(name); b != nil {
			return b
		}
	}
	return nil
}

// hoistTarget walks up to the nearest function (or program) scope.
//
//jslint:hotpath
func (s *Scope) hoistTarget() *Scope {
	for sc := s; sc != nil; sc = sc.Parent {
		if sc.IsFunction {
			return sc
		}
	}
	return s
}

// insert adds b to the scope's own table, promoting to a map when the scope
// grows past scopePromoteAt.
func (s *Scope) insert(b *Binding) {
	s.bindings = append(s.bindings, b)
	if s.byName != nil {
		s.byName[b.Name] = b
		return
	}
	if len(s.bindings) > scopePromoteAt {
		s.promote()
	}
}

// promote builds the name map from the slice table. Kept out of insert so
// the common path stays allocation-free.
func (s *Scope) promote() {
	m := make(map[string]*Binding, 2*scopePromoteAt)
	for _, b := range s.bindings {
		m[b.Name] = b
	}
	s.byName = m
}

// Edge is a directed edge between two AST nodes. It lives here (rather than
// in internal/flow) because the fused walk emits control edges during scope
// analysis; flow aliases the type, so flow.Edge literals still compile.
type Edge struct {
	From ast.Node
	To   ast.Node
}

// Info is the result of the analysis.
type Info struct {
	// Global is the program scope.
	Global *Scope
	// Unresolved lists references to names with no binding in the file
	// (browser/Node globals such as window, document, require).
	Unresolved []*ast.Identifier
	// Bindings lists every binding in declaration order.
	Bindings []*Binding

	// resolved maps a reference identifier's dense NodeID to its binding.
	// Slot 0 belongs to the Program root and stays nil, so identifiers from
	// an unstamped (foreign) tree resolve to nil rather than misresolving.
	resolved []*Binding
}

// BindingOf returns the binding a reference resolves to, or nil. The lookup
// is a dense slice index on the identifier's NodeID, valid for identifiers
// of the analyzed (stamped) tree.
//
//jslint:hotpath
func (i *Info) BindingOf(id *ast.Identifier) *Binding {
	nid := id.NodeID()
	if int(nid) >= len(i.resolved) {
		return nil
	}
	return i.resolved[nid]
}

// Analyze builds scope information for a program. The returned Info is
// self-contained. Analyze re-stamps the tree's NodeIDs unconditionally:
// its callers (transformers, the deobfuscator) hand it freshly mutated
// trees whose stale IDs would corrupt the dense resolution table.
func Analyze(prog *ast.Program) *Info {
	// A fresh session per call: the session's storage becomes the result's
	// storage, so nothing is pooled and the Info owns what it points to.
	return NewSession().Analyze(prog)
}
