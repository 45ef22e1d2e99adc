package mini

import "fmt"

// Op is a bytecode opcode. The VM is stack-based; every instruction is an
// opcode plus one int64 operand (ignored where unused), a fixed 4-byte
// "instruction" for PC accounting purposes.
type Op uint8

// Opcodes.
const (
	OpConst Op = iota // push operand
	OpLoadLocal
	OpStoreLocal
	OpPop

	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpNeg
	OpNot

	OpEq
	OpNe
	OpLt
	OpGt
	OpLe
	OpGe

	OpJump   // ip = operand
	OpJumpIf // pop; if zero, ip = operand
	OpCall   // operand = function index
	OpReturn

	OpNewArray // pop length; push handle
	OpALoad    // pop index, handle; push element (emits a load event)
	OpAStore   // pop value, index, handle
	OpLen      // pop handle; push length
	OpRand     // push next pseudorandom non-negative value
	OpPrint    // pop; append to VM output
)

var opNames = [...]string{
	OpConst: "const", OpLoadLocal: "loadl", OpStoreLocal: "storel", OpPop: "pop",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpNeg: "neg", OpNot: "not",
	OpEq: "eq", OpNe: "ne", OpLt: "lt", OpGt: "gt", OpLe: "le", OpGe: "ge",
	OpJump: "jump", OpJumpIf: "jumpifz", OpCall: "call", OpReturn: "ret",
	OpNewArray: "newarray", OpALoad: "aload", OpAStore: "astore",
	OpLen: "len", OpRand: "rand", OpPrint: "print",
}

// String returns the opcode mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Instr is one instruction.
type Instr struct {
	Op  Op
	Arg int64
}

// instrBytes is the architectural size charged per instruction when
// mapping instruction indices to program counters.
const instrBytes = 4

// Chunk is one compiled function.
type Chunk struct {
	Name       string
	NumParams  int
	NumLocals  int // including params
	Code       []Instr
	BlockStart []bool // Code[i] begins a basic block
	PCBase     uint64 // program counter of Code[0]
}

// PC returns the program counter of instruction index ip.
func (c *Chunk) PC(ip int) uint64 { return c.PCBase + uint64(ip)*instrBytes }

// Compiled is a fully compiled program.
type Compiled struct {
	Chunks []*Chunk
	Main   int // index of the entry function
}
