package firrtl

// Circuit is the root of a parsed FIRRTL design: a set of modules with a
// distinguished main module named after the circuit.
type Circuit struct {
	Name    string
	Modules []*Module
	// byName is Modules by name, built by the parser.
	byName map[string]*Module
}

// MainModule returns the module whose name matches the circuit, or nil.
func (c *Circuit) MainModule() *Module { return c.byName[c.Name] }

// FindModule returns the named module, or nil.
func (c *Circuit) FindModule(name string) *Module { return c.byName[name] }

// Module is one FIRRTL module: ports followed by flat statements.
type Module struct {
	Name  string
	Ports []PortDecl
	Stmts []Stmt
}

// PortDir distinguishes input from output ports.
type PortDir uint8

const (
	DirInput PortDir = iota
	DirOutput
)

// PortType classifies port types in the accepted subset.
type PortType uint8

const (
	TypeUInt PortType = iota
	TypeClock
	TypeReset
)

// PortDecl declares a module port.
type PortDecl struct {
	Dir   PortDir
	Name  string
	Type  PortType
	Width int // meaningful for TypeUInt; Reset is 1 bit
	Line  int
}

// Stmt is a FIRRTL statement.
type Stmt interface{ stmtNode() }

// WireDecl declares an intra-module wire.
type WireDecl struct {
	Name  string
	Width int
	Line  int
}

// RegDecl declares a register, optionally with synchronous reset.
type RegDecl struct {
	Name  string
	Width int
	// HasReset indicates `regreset` or `reg ... with : (reset => (sig, init))`.
	HasReset bool
	ResetSig Expr // reference expression
	Init     Expr // literal expression
	Line     int
}

// NodeDecl binds a name to an expression.
type NodeDecl struct {
	Name string
	Expr Expr
	Line int
}

// InstDecl instantiates a module.
type InstDecl struct {
	Name   string
	Module string
	Line   int
}

// Connect drives a reference with an expression (`lhs <= rhs`).
type Connect struct {
	LHS  RefExpr
	RHS  Expr
	Line int
}

// Skip is the no-op statement.
type Skip struct{ Line int }

func (*WireDecl) stmtNode() {}
func (*RegDecl) stmtNode()  {}
func (*NodeDecl) stmtNode() {}
func (*InstDecl) stmtNode() {}
func (*Connect) stmtNode()  {}
func (*Skip) stmtNode()     {}

// Expr is a FIRRTL expression.
type Expr interface{ exprNode() }

// RefExpr references a declared name, optionally an instance port (`x.y`).
type RefExpr struct {
	Name string // full dotted form
	Line int
}

// LitExpr is a literal: UInt<Width>(Value).
type LitExpr struct {
	Width int
	Value uint64
	Line  int
}

// PrimExpr applies a primitive operation to expression arguments and
// constant integer parameters (FIRRTL distinguishes the two syntactically
// only by position; the parser sorts them by the op's signature).
type PrimExpr struct {
	Op     string
	Args   []Expr
	Params []uint64
	Line   int
}

func (*RefExpr) exprNode()  {}
func (*LitExpr) exprNode()  {}
func (*PrimExpr) exprNode() {}

// primSig describes a primitive operation's expression-argument and integer
// parameter counts in the accepted subset.
type primSig struct {
	args   int
	params int
}

var primSigs = map[string]primSig{
	"add": {2, 0}, "sub": {2, 0}, "mul": {2, 0}, "div": {2, 0}, "rem": {2, 0},
	"lt": {2, 0}, "leq": {2, 0}, "gt": {2, 0}, "geq": {2, 0},
	"eq": {2, 0}, "neq": {2, 0},
	"and": {2, 0}, "or": {2, 0}, "xor": {2, 0},
	"not": {1, 0}, "neg": {1, 0},
	"cat":  {2, 0},
	"bits": {1, 2}, "head": {1, 1}, "tail": {1, 1}, "pad": {1, 1},
	"shl": {1, 1}, "shr": {1, 1},
	"dshl": {2, 0}, "dshr": {2, 0},
	"mux":  {3, 0},
	"andr": {1, 0}, "orr": {1, 0}, "xorr": {1, 0},
	"asUInt": {1, 0}, "validif": {2, 0},
}
