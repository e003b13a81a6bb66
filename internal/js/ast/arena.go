package ast

// Arena is a per-kind slab allocator for AST nodes. The parser allocates
// every node of one file out of one Arena instead of minting ~100 distinct
// heap objects per statement: each node type draws from its own chunked
// slab, so a file's nodes live in a few dozen contiguous chunks rather
// than hundreds of thousands of individual allocations.
//
// Ownership: an Arena belongs to the parser.Session that fills it, and the
// nodes it hands out are valid until the arena's next Reset. Reset keeps
// every chunk and rewinds each slab to its first one, so a session that
// parses many files reaches a steady state with no node allocation at all.
// Nothing may retain a node pointer past the parse that produced it; a
// caller that keeps or mutates a tree parses on a session of its own. The
// zero value is ready to use; an Arena must not be copied after first use.
//
// Pointer stability: alloc never moves previously returned nodes. When a
// chunk fills up, the slab moves on to its next chunk (the nodes already
// handed out stay where they are) and allocates a larger one only when it
// has no retained chunk left.
type Arena struct {
	program                  slab[Program]
	expressionStatement      slab[ExpressionStatement]
	blockStatement           slab[BlockStatement]
	emptyStatement           slab[EmptyStatement]
	debuggerStatement        slab[DebuggerStatement]
	withStatement            slab[WithStatement]
	returnStatement          slab[ReturnStatement]
	labeledStatement         slab[LabeledStatement]
	breakStatement           slab[BreakStatement]
	continueStatement        slab[ContinueStatement]
	ifStatement              slab[IfStatement]
	switchStatement          slab[SwitchStatement]
	switchCase               slab[SwitchCase]
	throwStatement           slab[ThrowStatement]
	tryStatement             slab[TryStatement]
	catchClause              slab[CatchClause]
	whileStatement           slab[WhileStatement]
	doWhileStatement         slab[DoWhileStatement]
	forStatement             slab[ForStatement]
	forInStatement           slab[ForInStatement]
	forOfStatement           slab[ForOfStatement]
	functionDeclaration      slab[FunctionDeclaration]
	variableDeclaration      slab[VariableDeclaration]
	variableDeclarator       slab[VariableDeclarator]
	classDeclaration         slab[ClassDeclaration]
	classBody                slab[ClassBody]
	propertyDefinition       slab[PropertyDefinition]
	methodDefinition         slab[MethodDefinition]
	importDeclaration        slab[ImportDeclaration]
	importSpecifier          slab[ImportSpecifier]
	importDefaultSpecifier   slab[ImportDefaultSpecifier]
	importNamespaceSpecifier slab[ImportNamespaceSpecifier]
	exportNamedDeclaration   slab[ExportNamedDeclaration]
	exportSpecifier          slab[ExportSpecifier]
	exportDefaultDeclaration slab[ExportDefaultDeclaration]
	exportAllDeclaration     slab[ExportAllDeclaration]
	identifier               slab[Identifier]
	literal                  slab[Literal]
	thisExpression           slab[ThisExpression]
	super                    slab[Super]
	arrayExpression          slab[ArrayExpression]
	objectExpression         slab[ObjectExpression]
	property                 slab[Property]
	functionExpression       slab[FunctionExpression]
	arrowFunctionExpression  slab[ArrowFunctionExpression]
	classExpression          slab[ClassExpression]
	templateLiteral          slab[TemplateLiteral]
	templateElement          slab[TemplateElement]
	taggedTemplateExpression slab[TaggedTemplateExpression]
	memberExpression         slab[MemberExpression]
	callExpression           slab[CallExpression]
	newExpression            slab[NewExpression]
	spreadElement            slab[SpreadElement]
	unaryExpression          slab[UnaryExpression]
	updateExpression         slab[UpdateExpression]
	binaryExpression         slab[BinaryExpression]
	logicalExpression        slab[LogicalExpression]
	assignmentExpression     slab[AssignmentExpression]
	conditionalExpression    slab[ConditionalExpression]
	sequenceExpression       slab[SequenceExpression]
	restElement              slab[RestElement]
	assignmentPattern        slab[AssignmentPattern]
	arrayPattern             slab[ArrayPattern]
	objectPattern            slab[ObjectPattern]
	awaitExpression          slab[AwaitExpression]
	yieldExpression          slab[YieldExpression]
	metaProperty             slab[MetaProperty]

	// count is the total number of nodes handed out, across every slab.
	// StampIDs uses it (via NodeCount) to pre-size the dense ID table and
	// the parse-order kind stream exactly.
	count int

	// used lists every slab that owns a chunk, so Reset rewinds only the
	// node kinds the arena has ever allocated.
	used []resetter
}

// NodeCount reports how many nodes this arena has allocated since its last
// Reset.
func (a *Arena) NodeCount() int { return a.count }

// Reset rewinds the arena for the next file. Every chunk is kept and reused
// in order, and no slot is zeroed: each constructor overwrites its whole
// slot with the caller's value, so a stale node never shows through. Nodes
// handed out before the Reset must no longer be used.
//
//jslint:hotpath
func (a *Arena) Reset() {
	for _, s := range a.used {
		s.reset()
	}
	a.count = 0
}

// Slab chunk sizing: chunks double from arenaChunkMin nodes up to
// arenaChunkMax, so tiny files pay for a handful of nodes while big
// minified bundles settle into large chunks with O(log n) growths.
const (
	arenaChunkMin = 16
	arenaChunkMax = 1024
)

// slab holds the storage of one node type: every chunk it owns, in fill
// order, and the chunk being filled. Retained chunks are stored at length
// zero.
type slab[T any] struct {
	cur    []T
	chunks [][]T
	// next indexes the chunk the next growth moves on to.
	next int
}

type resetter interface{ reset() }

// reset rewinds the slab to its first chunk. cur is emptied outright, so
// the next alloc takes the grow path and picks chunks[0] up from there.
func (s *slab[T]) reset() {
	s.cur = nil
	s.next = 0
}

// arenaAlloc returns a node slot from the slab, moving to the next chunk
// when the current one is full. The amortized cost is one bump and one
// bounds check per node.
//
//jslint:hotpath
func arenaAlloc[T any](a *Arena, s *slab[T]) *T {
	if len(s.cur) == cap(s.cur) {
		slabGrow(a, s)
	}
	s.cur = s.cur[:len(s.cur)+1]
	a.count++
	return &s.cur[len(s.cur)-1]
}

// slabGrow moves s on to its next chunk, allocating one only when every
// retained chunk is in use. A filled chunk is never copied: the nodes
// already handed out from it stay where they are.
func slabGrow[T any](a *Arena, s *slab[T]) {
	if s.next == len(s.chunks) {
		if len(s.chunks) == 0 {
			a.used = append(a.used, s)
		}
		s.chunks = append(s.chunks, arenaGrow(s.cur))
	}
	s.cur = s.chunks[s.next]
	s.next++
}

// arenaGrow makes a fresh chunk twice the size of old, within the chunk
// bounds.
func arenaGrow[T any](old []T) []T {
	n := 2 * cap(old)
	if n < arenaChunkMin {
		n = arenaChunkMin
	}
	if n > arenaChunkMax {
		n = arenaChunkMax
	}
	return make([]T, 0, n)
}

// One constructor per node type. Each copies the given value into
// arena-owned storage and returns the stable pointer, so call sites read
// exactly like the &T{...} literals they replace.

//jslint:hotpath
func (a *Arena) NewProgram(v Program) *Program {
	n := arenaAlloc(a, &a.program)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewExpressionStatement(v ExpressionStatement) *ExpressionStatement {
	n := arenaAlloc(a, &a.expressionStatement)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewBlockStatement(v BlockStatement) *BlockStatement {
	n := arenaAlloc(a, &a.blockStatement)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewEmptyStatement(v EmptyStatement) *EmptyStatement {
	n := arenaAlloc(a, &a.emptyStatement)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewDebuggerStatement(v DebuggerStatement) *DebuggerStatement {
	n := arenaAlloc(a, &a.debuggerStatement)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewWithStatement(v WithStatement) *WithStatement {
	n := arenaAlloc(a, &a.withStatement)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewReturnStatement(v ReturnStatement) *ReturnStatement {
	n := arenaAlloc(a, &a.returnStatement)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewLabeledStatement(v LabeledStatement) *LabeledStatement {
	n := arenaAlloc(a, &a.labeledStatement)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewBreakStatement(v BreakStatement) *BreakStatement {
	n := arenaAlloc(a, &a.breakStatement)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewContinueStatement(v ContinueStatement) *ContinueStatement {
	n := arenaAlloc(a, &a.continueStatement)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewIfStatement(v IfStatement) *IfStatement {
	n := arenaAlloc(a, &a.ifStatement)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewSwitchStatement(v SwitchStatement) *SwitchStatement {
	n := arenaAlloc(a, &a.switchStatement)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewSwitchCase(v SwitchCase) *SwitchCase {
	n := arenaAlloc(a, &a.switchCase)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewThrowStatement(v ThrowStatement) *ThrowStatement {
	n := arenaAlloc(a, &a.throwStatement)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewTryStatement(v TryStatement) *TryStatement {
	n := arenaAlloc(a, &a.tryStatement)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewCatchClause(v CatchClause) *CatchClause {
	n := arenaAlloc(a, &a.catchClause)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewWhileStatement(v WhileStatement) *WhileStatement {
	n := arenaAlloc(a, &a.whileStatement)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewDoWhileStatement(v DoWhileStatement) *DoWhileStatement {
	n := arenaAlloc(a, &a.doWhileStatement)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewForStatement(v ForStatement) *ForStatement {
	n := arenaAlloc(a, &a.forStatement)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewForInStatement(v ForInStatement) *ForInStatement {
	n := arenaAlloc(a, &a.forInStatement)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewForOfStatement(v ForOfStatement) *ForOfStatement {
	n := arenaAlloc(a, &a.forOfStatement)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewFunctionDeclaration(v FunctionDeclaration) *FunctionDeclaration {
	n := arenaAlloc(a, &a.functionDeclaration)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewVariableDeclaration(v VariableDeclaration) *VariableDeclaration {
	n := arenaAlloc(a, &a.variableDeclaration)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewVariableDeclarator(v VariableDeclarator) *VariableDeclarator {
	n := arenaAlloc(a, &a.variableDeclarator)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewClassDeclaration(v ClassDeclaration) *ClassDeclaration {
	n := arenaAlloc(a, &a.classDeclaration)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewClassBody(v ClassBody) *ClassBody {
	n := arenaAlloc(a, &a.classBody)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewPropertyDefinition(v PropertyDefinition) *PropertyDefinition {
	n := arenaAlloc(a, &a.propertyDefinition)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewMethodDefinition(v MethodDefinition) *MethodDefinition {
	n := arenaAlloc(a, &a.methodDefinition)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewImportDeclaration(v ImportDeclaration) *ImportDeclaration {
	n := arenaAlloc(a, &a.importDeclaration)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewImportSpecifier(v ImportSpecifier) *ImportSpecifier {
	n := arenaAlloc(a, &a.importSpecifier)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewImportDefaultSpecifier(v ImportDefaultSpecifier) *ImportDefaultSpecifier {
	n := arenaAlloc(a, &a.importDefaultSpecifier)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewImportNamespaceSpecifier(v ImportNamespaceSpecifier) *ImportNamespaceSpecifier {
	n := arenaAlloc(a, &a.importNamespaceSpecifier)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewExportNamedDeclaration(v ExportNamedDeclaration) *ExportNamedDeclaration {
	n := arenaAlloc(a, &a.exportNamedDeclaration)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewExportSpecifier(v ExportSpecifier) *ExportSpecifier {
	n := arenaAlloc(a, &a.exportSpecifier)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewExportDefaultDeclaration(v ExportDefaultDeclaration) *ExportDefaultDeclaration {
	n := arenaAlloc(a, &a.exportDefaultDeclaration)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewExportAllDeclaration(v ExportAllDeclaration) *ExportAllDeclaration {
	n := arenaAlloc(a, &a.exportAllDeclaration)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewIdentifier(v Identifier) *Identifier {
	n := arenaAlloc(a, &a.identifier)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewLiteral(v Literal) *Literal {
	n := arenaAlloc(a, &a.literal)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewThisExpression(v ThisExpression) *ThisExpression {
	n := arenaAlloc(a, &a.thisExpression)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewSuper(v Super) *Super {
	n := arenaAlloc(a, &a.super)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewArrayExpression(v ArrayExpression) *ArrayExpression {
	n := arenaAlloc(a, &a.arrayExpression)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewObjectExpression(v ObjectExpression) *ObjectExpression {
	n := arenaAlloc(a, &a.objectExpression)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewProperty(v Property) *Property {
	n := arenaAlloc(a, &a.property)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewFunctionExpression(v FunctionExpression) *FunctionExpression {
	n := arenaAlloc(a, &a.functionExpression)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewArrowFunctionExpression(v ArrowFunctionExpression) *ArrowFunctionExpression {
	n := arenaAlloc(a, &a.arrowFunctionExpression)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewClassExpression(v ClassExpression) *ClassExpression {
	n := arenaAlloc(a, &a.classExpression)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewTemplateLiteral(v TemplateLiteral) *TemplateLiteral {
	n := arenaAlloc(a, &a.templateLiteral)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewTemplateElement(v TemplateElement) *TemplateElement {
	n := arenaAlloc(a, &a.templateElement)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewTaggedTemplateExpression(v TaggedTemplateExpression) *TaggedTemplateExpression {
	n := arenaAlloc(a, &a.taggedTemplateExpression)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewMemberExpression(v MemberExpression) *MemberExpression {
	n := arenaAlloc(a, &a.memberExpression)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewCallExpression(v CallExpression) *CallExpression {
	n := arenaAlloc(a, &a.callExpression)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewNewExpression(v NewExpression) *NewExpression {
	n := arenaAlloc(a, &a.newExpression)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewSpreadElement(v SpreadElement) *SpreadElement {
	n := arenaAlloc(a, &a.spreadElement)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewUnaryExpression(v UnaryExpression) *UnaryExpression {
	n := arenaAlloc(a, &a.unaryExpression)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewUpdateExpression(v UpdateExpression) *UpdateExpression {
	n := arenaAlloc(a, &a.updateExpression)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewBinaryExpression(v BinaryExpression) *BinaryExpression {
	n := arenaAlloc(a, &a.binaryExpression)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewLogicalExpression(v LogicalExpression) *LogicalExpression {
	n := arenaAlloc(a, &a.logicalExpression)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewAssignmentExpression(v AssignmentExpression) *AssignmentExpression {
	n := arenaAlloc(a, &a.assignmentExpression)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewConditionalExpression(v ConditionalExpression) *ConditionalExpression {
	n := arenaAlloc(a, &a.conditionalExpression)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewSequenceExpression(v SequenceExpression) *SequenceExpression {
	n := arenaAlloc(a, &a.sequenceExpression)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewRestElement(v RestElement) *RestElement {
	n := arenaAlloc(a, &a.restElement)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewAssignmentPattern(v AssignmentPattern) *AssignmentPattern {
	n := arenaAlloc(a, &a.assignmentPattern)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewArrayPattern(v ArrayPattern) *ArrayPattern {
	n := arenaAlloc(a, &a.arrayPattern)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewObjectPattern(v ObjectPattern) *ObjectPattern {
	n := arenaAlloc(a, &a.objectPattern)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewAwaitExpression(v AwaitExpression) *AwaitExpression {
	n := arenaAlloc(a, &a.awaitExpression)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewYieldExpression(v YieldExpression) *YieldExpression {
	n := arenaAlloc(a, &a.yieldExpression)
	*n = v
	return n
}

//jslint:hotpath
func (a *Arena) NewMetaProperty(v MetaProperty) *MetaProperty {
	n := arenaAlloc(a, &a.metaProperty)
	*n = v
	return n
}
