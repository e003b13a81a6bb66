package ast

// NodeID is a dense pre-order index into one stamped tree: the Program root
// is 0, and every node's ID is one greater than the node visited just before
// it in an EachChild pre-order walk. IDs are dense — a stamped tree with N
// nodes uses exactly the IDs [0, N) — so downstream passes replace
// pointer-keyed maps with flat slices indexed by ID (see scope.Info).
//
// IDs are scoped to the tree they were stamped on. Nodes created after
// stamping (e.g. by transforms) carry ID 0; since slot 0 always belongs to
// the Program root, a dense table's slot 0 is never a meaningful entry for
// an Identifier, which lets lookups treat unstamped nodes as "absent"
// without a sentinel check. Mutating a stamped tree invalidates density and
// pre-order; re-stamp before trusting IDs again (ownership rules: DESIGN.md
// "Sessions own the storage").
type NodeID uint32

// IDStamper walks a tree assigning dense pre-order NodeIDs, optionally
// recording the pre-order kind stream as it goes (the same stream the n-gram
// extractor consumes, so a stamped parse never needs a second kind walk).
// The visit field holds visitNode as a method value bound once per instance
// so the recursive walk allocates nothing; the parser keeps one IDStamper
// per session and reuses it across files.
type IDStamper struct {
	next    NodeID
	kinds   []uint16
	collect bool
	visit   func(Node)
}

// NewIDStamper returns a stamper with the zero-alloc visit hook pre-bound.
func NewIDStamper() *IDStamper {
	s := &IDStamper{}
	s.visit = s.visitNode
	return s
}

// Stamp assigns dense pre-order IDs to every node under prog, sets
// prog.NodeCount, and appends the pre-order kind stream to kinds (which may
// be nil). It returns the extended kinds slice. The caller owns kinds; the
// stamper retains no reference to it after returning.
func (s *IDStamper) Stamp(prog *Program, kinds []uint16) []uint16 {
	s.next = 0
	s.kinds = kinds
	s.collect = true
	s.visitNode(prog)
	prog.NodeCount = uint32(s.next)
	kinds = s.kinds
	s.kinds = nil // do not pin the caller's buffer across files
	return kinds
}

// StampIDs assigns dense pre-order IDs without collecting kinds and returns
// the node count. It allocates only on first use of a fresh stamper, so
// passes that receive already-mutated trees (transforms, deobfuscation) can
// afford to re-stamp unconditionally.
func (s *IDStamper) StampIDs(prog *Program) uint32 {
	s.next = 0
	s.collect = false
	s.visitNode(prog)
	prog.NodeCount = uint32(s.next)
	return prog.NodeCount
}

// StampIDs stamps prog with a throwaway stamper. Steady-state callers (the
// parser, flow sessions) hold an IDStamper instead.
func StampIDs(prog *Program) uint32 {
	return NewIDStamper().StampIDs(prog)
}

// visitNode stamps n and recurses. The recursive step passes the pre-bound
// s.visit field, not the visitNode method itself: a method value in argument
// position would allocate its bound closure on every node.
//
//jslint:hotpath
func (s *IDStamper) visitNode(n Node) {
	n.SetNodeID(s.next)
	s.next++
	if s.collect {
		s.kinds = append(s.kinds, uint16(n.NodeKind()))
	}
	EachChild(n, s.visit)
}
