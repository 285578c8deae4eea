// Package isa defines the abstract instruction set executed by the simulated
// cores: instruction classes, architectural registers, execution latencies
// and the functional-unit pools shared by the 3-wide OoO and InO cores.
//
// The ISA is a synthetic single-ISA RISC model (ARM-like, per the paper's
// methodology): what matters to Mirage Cores is the dependence structure,
// operation latencies and memory behaviour of instruction streams, not the
// semantics of particular opcodes.
package isa

import "fmt"

// Class is the execution class of an instruction. It determines latency and
// which functional unit the instruction occupies at issue.
type Class uint8

const (
	// IntALU covers single-cycle integer arithmetic and logic.
	IntALU Class = iota
	// IntMul is integer multiply.
	IntMul
	// IntDiv is integer divide (long latency, unpipelined).
	IntDiv
	// FPAdd covers FP add/sub/compare.
	FPAdd
	// FPMul is FP multiply.
	FPMul
	// FPDiv is FP divide/sqrt (long latency, unpipelined).
	FPDiv
	// Load reads memory; its latency is determined by the cache hierarchy.
	Load
	// Store writes memory; it occupies the memory port.
	Store
	// Branch is a conditional or unconditional control transfer.
	Branch
	// NumClasses is the number of instruction classes.
	NumClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case IntALU:
		return "IntALU"
	case IntMul:
		return "IntMul"
	case IntDiv:
		return "IntDiv"
	case FPAdd:
		return "FPAdd"
	case FPMul:
		return "FPMul"
	case FPDiv:
		return "FPDiv"
	case Load:
		return "Load"
	case Store:
		return "Store"
	case Branch:
		return "Branch"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// IsMem reports whether the class accesses data memory.
func (c Class) IsMem() bool { return c == Load || c == Store }

// Reg is an architectural register number. Integer registers are
// [0, NumIntRegs); floating-point registers are [NumIntRegs, NumRegs).
// NoReg means "no operand".
type Reg uint8

const (
	// NumIntRegs is the number of architectural integer registers.
	NumIntRegs = 32
	// NumFPRegs is the number of architectural floating-point registers.
	NumFPRegs = 32
	// NumRegs is the total architectural register count.
	NumRegs = NumIntRegs + NumFPRegs
	// NoReg marks an absent register operand.
	NoReg Reg = 255
)

// Valid reports whether r names a real register.
func (r Reg) Valid() bool { return r < NumRegs }

// Inst is one static instruction inside a trace. Operand registers encode
// the dependence structure; MemStream selects which address stream a memory
// instruction walks (the stream generator lives in internal/mem).
type Inst struct {
	Op   Class
	Dst  Reg // NoReg for stores and branches
	Src1 Reg // NoReg if unused
	Src2 Reg // NoReg if unused
	// MemStream indexes the owning trace's address streams for Load/Store.
	MemStream uint8
}

// HasDst reports whether the instruction writes a register.
func (in Inst) HasDst() bool { return in.Dst != NoReg }

// Latency is the execution latency, in cycles, of each class once issued.
// Load latency listed here is the L1-hit latency; the memory system adds
// miss penalties on top.
var Latency = [NumClasses]int{
	IntALU: 1,
	IntMul: 3,
	IntDiv: 12,
	FPAdd:  3,
	FPMul:  4,
	FPDiv:  16,
	Load:   2, // L1D hit
	Store:  1,
	Branch: 1,
}

// Pipelined reports whether a functional unit of this class accepts a new
// operation every cycle (true) or blocks until the current one finishes.
var Pipelined = [NumClasses]bool{
	IntALU: true,
	IntMul: true,
	IntDiv: false,
	FPAdd:  true,
	FPMul:  true,
	FPDiv:  false,
	Load:   true,
	Store:  true,
	Branch: true,
}

// FU identifies a functional-unit pool.
type FU uint8

const (
	// FUIntALU executes IntALU and Branch operations.
	FUIntALU FU = iota
	// FUIntMulDiv executes IntMul and IntDiv.
	FUIntMulDiv
	// FUFP executes all floating-point operations.
	FUFP
	// FUMem is the load/store port.
	FUMem
	// NumFUs is the number of functional-unit pools.
	NumFUs
)

// UnitFor maps an instruction class to the functional unit pool it needs.
func UnitFor(c Class) FU {
	switch c {
	case IntALU, Branch:
		return FUIntALU
	case IntMul, IntDiv:
		return FUIntMulDiv
	case FPAdd, FPMul, FPDiv:
		return FUFP
	case Load, Store:
		return FUMem
	}
	return FUIntALU
}

// FUCount is the number of units in each pool for the 3-wide cores used in
// the paper (both OoO and InO share the same width and FU mix so that issue
// schedules transfer directly between them).
var FUCount = [NumFUs]int{
	FUIntALU:    2,
	FUIntMulDiv: 1,
	FUFP:        1,
	FUMem:       2,
}

// Machine-wide pipeline constants (Table 2 of the paper).
const (
	// IssueWidth is the superscalar width of both core types.
	IssueWidth = 3
	// OoOPipelineDepth is the OoO front-end depth; it sets the branch
	// misprediction penalty on the OoO core.
	OoOPipelineDepth = 12
	// InOPipelineDepth is the InO front-end depth.
	InOPipelineDepth = 8
	// ROBSize is the OoO reorder-buffer capacity.
	ROBSize = 128
	// OoOIntPRF and OoOFPPRF are the OoO physical register file sizes.
	OoOIntPRF = 128
	OoOFPPRF  = 256
	// OinOPRFEntries is the expanded OinO register file (4 versions per AR).
	OinOPRFEntries = 128
	// OinOMaxVersions caps live renamed versions per architectural register
	// in OinO mode; schedules needing more are not memoizable.
	OinOMaxVersions = 4
	// OinOLSQSize is the replay LSQ added for OinO mode.
	OinOLSQSize = 32
)

// InstBytes is the encoded size of one instruction; used to size schedules
// in the Schedule Cache.
const InstBytes = 4
