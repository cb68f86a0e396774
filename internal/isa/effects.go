package isa

import "math/bits"

// This file is the single definition of what each instruction reads and
// writes: registers, condition flags, and guest memory. The answers are
// exact per the VM's single-step semantics (TestSemanticsCrossCheck in
// internal/cfg pins them against execution) and are keyed on the same
// (op, form) pairs validForm admits. Analyses that need a coarser view
// build it on top: internal/cfg saturates unknown callees and patch
// targets, the superblock compiler uses these answers unchanged.
//
// RTCALL and TRAP are reported by their own operands only (none): what a
// host runtime function or a patch-table target does is not a property
// of the instruction, so callers that can reach one must treat it as
// opaque.

// RegSet is a bitmask over the 16 general-purpose registers.
type RegSet uint16

// AllRegs is the set of every general-purpose register.
const AllRegs RegSet = 0xFFFF

// Add returns the set with r added (no-op for pseudo registers).
func (s RegSet) Add(r Reg) RegSet {
	if r < NumRegs {
		return s | 1<<r
	}
	return s
}

// Has reports whether r is in the set.
func (s RegSet) Has(r Reg) bool {
	return r < NumRegs && s&(1<<r) != 0
}

// Union returns the union of two sets.
func (s RegSet) Union(o RegSet) RegSet { return s | o }

// Intersects reports whether the sets share a register.
func (s RegSet) Intersects(o RegSet) bool { return s&o != 0 }

// Count returns the number of registers in the set.
func (s RegSet) Count() int { return bits.OnesCount16(uint16(s)) }

// FlagSet is a bitmask over the four condition flags. Liveness tracks
// each flag on its own because several instructions write only a subset:
// INC/DEC preserve CF, and a shift whose count may be zero preserves all
// four. Treating those as whole-register kills is unsound: a trampoline
// could clobber a CF that a later JB still observes through an INC.
type FlagSet uint8

// Individual flag bits.
const (
	FlagZ FlagSet = 1 << iota
	FlagS
	FlagC
	FlagO

	// AllFlags is the set of every condition flag.
	AllFlags FlagSet = FlagZ | FlagS | FlagC | FlagO
)

// Has reports whether f contains all flags in o.
func (f FlagSet) Has(o FlagSet) bool { return f&o == o }

// Regs returns the registers the operand's address depends on (RIP and
// absent components contribute none).
func (m Mem) Regs() RegSet {
	return RegSet(0).Add(m.Base).Add(m.Index)
}

func (o Op) isShift() bool { return o == SHL || o == SHR || o == SAR }

// RegsRead returns the registers in reads: explicit sources, the address
// registers of its memory operand, and implicit operands (the stack
// pointer of pushes and pops, RAX of CQO and the divides, RCX of a
// %cl-count shift).
func (in *Inst) RegsRead() RegSet {
	var s RegSet
	if in.HasMem() {
		s = in.Mem.Regs()
	}
	switch in.Op {
	case RET, PUSHF, POPF:
		return s.Add(RSP)
	case CQO:
		return s.Add(RAX)
	case UDIV, IDIV:
		return s.Add(RAX).Add(in.Reg)
	case CALL:
		s = s.Add(RSP) // the return-address push; FR adds the target below
	}
	switch in.Form {
	case FRR:
		s = s.Add(in.Reg2)
		if in.Op != MOV {
			s = s.Add(in.Reg) // ALU dst is also a source; XCHG reads both
		}
		if in.Op.isShift() {
			s = s.Add(RCX)
		}
	case FRI:
		if in.Op != MOV && in.Op != MOVABS {
			s = s.Add(in.Reg)
		}
	case FRM:
		switch in.Op {
		case MOV, MOVZX, MOVSX, LEA:
		default:
			s = s.Add(in.Reg) // ALU-from-memory reads the register too
		}
	case FMR:
		s = s.Add(in.Reg)
	case FR:
		switch in.Op {
		case PUSH:
			s = s.Add(in.Reg).Add(RSP)
		case POP:
			s = s.Add(RSP)
		case INC, DEC, NEG, NOT, JMP, CALL:
			s = s.Add(in.Reg)
		}
	case FM:
		if in.Op == PUSH || in.Op == POP {
			s = s.Add(RSP)
		}
	}
	return s
}

// RegsWritten returns the registers in writes. Every register in the set
// is written on every path that completes the instruction.
func (in *Inst) RegsWritten() RegSet {
	var s RegSet
	switch in.Op {
	case RET, PUSHF, POPF, CALL:
		return s.Add(RSP)
	case CQO:
		return s.Add(RDX)
	case UDIV, IDIV:
		return s.Add(RAX).Add(RDX)
	case CMP, TEST:
		return s
	}
	switch in.Form {
	case FRR:
		s = s.Add(in.Reg)
		if in.Op == XCHG {
			s = s.Add(in.Reg2)
		}
	case FRI, FRM:
		s = s.Add(in.Reg)
	case FR:
		switch in.Op {
		case PUSH:
			s = s.Add(RSP)
		case POP:
			s = s.Add(in.Reg).Add(RSP)
		case INC, DEC, NEG, NOT:
			s = s.Add(in.Reg)
		}
	case FM:
		if in.Op == PUSH || in.Op == POP {
			s = s.Add(RSP)
		}
	}
	return s
}

// FlagsRead returns the flags whose input value in observes: a
// conditional jump's predicate, or all four for PUSHF. A flag that merely
// passes through unchanged (INC's CF) is not read; it is absent from
// FlagsKilled instead, so liveness flows through the instruction.
func (in *Inst) FlagsRead() FlagSet {
	switch in.Op {
	case PUSHF:
		return AllFlags
	case JE, JNE:
		return FlagZ
	case JL, JGE:
		return FlagS | FlagO
	case JLE, JG:
		return FlagZ | FlagS | FlagO
	case JB, JAE:
		return FlagC
	case JBE, JA:
		return FlagC | FlagZ
	case JS, JNS:
		return FlagS
	case JO, JNO:
		return FlagO
	}
	return 0
}

// FlagsKilled returns the flags in overwrites whatever its inputs (a
// must-kill set):
//
//   - ADD/SUB/AND/OR/XOR/CMP/TEST/IMUL/NEG/POPF overwrite all four;
//   - INC/DEC overwrite ZF/SF/OF but preserve CF;
//   - SHL/SHR/SAR overwrite all four only when the count is a nonzero
//     immediate; a %cl-count or zero-immediate shift may leave the flags
//     untouched and so kills nothing.
func (in *Inst) FlagsKilled() FlagSet {
	switch in.Op {
	case ADD, SUB, AND, OR, XOR, CMP, TEST, IMUL, NEG, POPF:
		return AllFlags
	case INC, DEC:
		return FlagZ | FlagS | FlagO
	case SHL, SHR, SAR:
		if in.Form == FRI && in.Imm&63 != 0 {
			return AllFlags
		}
	}
	return 0
}

// FlagsMayWrite returns the flags in might write: the kill set, except
// that a %cl-count shift may write all four without being guaranteed to.
func (in *Inst) FlagsMayWrite() FlagSet {
	if in.Op.isShift() && in.Form == FRR {
		return AllFlags
	}
	return in.FlagsKilled()
}
