// Package cfg implements the static binary analyses the RedFat rewriter
// needs (paper §6):
//
//   - linear disassembly of the text section;
//   - conservative basic-block (control-flow) recovery. Precise recovery
//     is undecidable; the analysis over-approximates the set of block
//     leaders, which can only shrink batch sizes, never break correctness;
//   - register def/use and clobber (dead-register) analysis, used to
//     specialize trampoline prologues;
//   - reorderability analysis for check batching: a memory access can be
//     checked at the head of its group only if the registers its operand
//     reads are not redefined in between.
package cfg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"redfat/internal/isa"
	"redfat/internal/relf"
)

// The per-instruction effects (registers and flags read and written,
// memory stores) are defined once, by isa.Inst. The queries below are
// the whole-program view on top of them: an unknown callee (CALL,
// RTCALL) reads and writes every register and may write the flags, and a
// patch target (TRAP) may observe every flag.

// RegsRead returns the registers read by in, saturated for unknown
// callees.
func RegsRead(in *isa.Inst) isa.RegSet {
	if in.Op == isa.CALL || in.Op == isa.RTCALL {
		return isa.AllRegs
	}
	return in.RegsRead()
}

// RegsWritten returns the registers written by in, saturated for unknown
// callees.
func RegsWritten(in *isa.Inst) isa.RegSet {
	if in.Op == isa.CALL || in.Op == isa.RTCALL {
		return isa.AllRegs
	}
	return in.RegsWritten()
}

// FlagsRead returns the flags in may observe, saturated for unknown
// callees and patch targets.
func FlagsRead(in *isa.Inst) isa.FlagSet {
	switch in.Op {
	case isa.CALL, isa.RTCALL, isa.TRAP:
		return isa.AllFlags
	}
	return in.FlagsRead()
}

// WritesFlags reports whether in may modify the flags register. It is
// the coarse opcode-level answer: unknown callees, and every shift
// whatever its count, so the searches for the nearest flag writer above
// a jump-table guard stop at a zero-count shift rather than see past it.
func WritesFlags(in *isa.Inst) bool {
	switch in.Op {
	case isa.SHL, isa.SHR, isa.SAR, isa.CALL, isa.RTCALL:
		return true
	}
	return in.FlagsMayWrite() != 0
}

// noRSP is every register except the stack pointer, which is never
// reported dead.
const noRSP = isa.AllRegs &^ (1 << isa.RSP)

// DecodedInst pairs an instruction with its address.
type DecodedInst struct {
	Addr uint64
	Inst isa.Inst
}

// Program is a disassembled text section with recovered control flow.
// Lookups by address go through dense tables over text offsets, so the
// program costs a few bytes per text byte instead of a hash-map entry
// per instruction.
type Program struct {
	Binary *relf.Binary
	Insts  []DecodedInst

	base    uint64  // text address: offset 0 of index
	index   []int32 // text offset → Insts index + 1; 0 = not an instruction start
	leaders textSet // basic-block leaders (over-approximated)
}

// ErrEmptyText reports a text section without a single instruction:
// there is no program to analyse or rewrite.
var ErrEmptyText = errors.New("cfg: text section is empty")

// textSet is a bitset over the byte addresses of a text section.
type textSet struct {
	base uint64
	bits []uint64
}

func newTextSet(base uint64, size int) textSet {
	return textSet{base: base, bits: make([]uint64, (size+63)/64)}
}

// add inserts a, which must lie in the text.
func (s textSet) add(a uint64) { off := a - s.base; s.bits[off>>6] |= 1 << (off & 63) }

// has reports whether a is in the set. Addresses past the text, or below
// it (the offset wraps), are not.
func (s textSet) has(a uint64) bool {
	off := a - s.base
	return off>>6 < uint64(len(s.bits)) && s.bits[off>>6]&(1<<(off&63)) != 0
}

// Disassemble linearly decodes the binary's text section and recovers
// control flow. It works on stripped binaries; symbols (if present) only
// add leaders, improving precision of nothing and conservatism of
// everything.
func Disassemble(bin *relf.Binary) (*Program, error) {
	text := bin.Text()
	if text == nil {
		return nil, fmt.Errorf("cfg: binary has no text section")
	}
	data := text.Data
	if len(data) == 0 {
		return nil, ErrEmptyText
	}
	if len(data) > math.MaxInt32 {
		return nil, fmt.Errorf("cfg: text section of %d bytes is too large", len(data))
	}
	p := &Program{
		Binary:  bin,
		Insts:   make([]DecodedInst, 0, len(data)/2+1), // ~2.5 bytes per instruction in dense code
		base:    text.Addr,
		index:   make([]int32, len(data)),
		leaders: newTextSet(text.Addr, len(data)),
	}
	addr := text.Addr
	for off := 0; off < len(data); {
		in, err := isa.Decode(data[off:])
		if err != nil {
			return nil, fmt.Errorf("cfg: disassembly failed at %#x: %w", addr, err)
		}
		p.Insts = append(p.Insts, DecodedInst{Addr: addr, Inst: in})
		p.index[off] = int32(len(p.Insts))
		off += int(in.Len)
		addr += uint64(in.Len)
	}
	p.recoverLeaders()
	return p, nil
}

// recoverLeaders computes the conservative leader set.
func (p *Program) recoverLeaders() {
	mark := func(a uint64) {
		if _, ok := p.InstAt(a); ok {
			p.leaders.add(a)
		}
	}

	mark(p.Binary.Entry)
	for _, s := range p.Binary.Symbols {
		if s.Func {
			mark(s.Addr)
		}
	}
	for i := range p.Insts {
		di := &p.Insts[i]
		in := &di.Inst
		next := di.Addr + uint64(in.Len)
		switch {
		case in.Op == isa.JMP || in.Op == isa.CALL:
			if in.Form == isa.FRel8 || in.Form == isa.FRel32 {
				mark(next + uint64(in.Imm))
			}
			mark(next) // the fall-through / return point starts a block
		case in.Op.IsCondJump():
			mark(next + uint64(in.Imm))
			mark(next)
		case in.Op == isa.RET || in.Op == isa.HLT || in.Op == isa.RTCALL:
			mark(next)
		}
		// Conservative over-approximation for indirect control flow:
		// any immediate that looks like a text address may be an
		// address-taken jump/call target.
		if in.Form == isa.FRI || in.Form == isa.FMI {
			mark(uint64(in.Imm))
		}
		if in.HasMem() && in.Mem.IsAbsolute() {
			mark(uint64(uint32(in.Mem.Disp)))
		}
		// Landing pads are indirect-branch targets by construction.
		if in.Op == isa.LPAD {
			mark(di.Addr)
		}
	}

	// Marker-built binaries declare their jump tables: every declared
	// entry is a known indirect-jump target, hence a leader. Note this is
	// content-gated, not knob-gated — block partitioning must not depend
	// on whether recovery is enabled, only on the binary itself.
	if sec := p.Binary.Section(relf.JumpTableSection); sec != nil {
		tables, err := relf.DecodeJumpTables(sec.Data)
		if err == nil {
			for _, t := range tables {
				s := p.Binary.SectionAt(t.Addr)
				if s == nil || len(s.Data) == 0 {
					continue
				}
				off := t.Addr - s.Addr
				for k := uint64(0); k < uint64(t.Entries); k++ {
					if off+8*k+8 > uint64(len(s.Data)) {
						break
					}
					mark(binary.LittleEndian.Uint64(s.Data[off+8*k:]))
				}
			}
		}
	}
}

// InstAt returns the index of the instruction starting at addr.
func (p *Program) InstAt(addr uint64) (int, bool) {
	off := addr - p.base
	if off >= uint64(len(p.index)) || p.index[off] == 0 {
		return 0, false
	}
	return int(p.index[off]) - 1, true
}

// IsLeader reports whether addr starts a (recovered) basic block.
func (p *Program) IsLeader(addr uint64) bool { return p.leaders.has(addr) }

// BlockEnd returns the index one past the last instruction of the block
// beginning at instruction index i (exclusive bound).
func (p *Program) BlockEnd(i int) int {
	j := i
	for j < len(p.Insts) {
		in := &p.Insts[j].Inst
		if in.Op.IsBranch() || in.Op == isa.RTCALL || in.Op == isa.TRAP {
			return j + 1
		}
		j++
		if j < len(p.Insts) && p.IsLeader(p.Insts[j].Addr) {
			return j
		}
	}
	return j
}

// DeadRegsAt returns the set of registers provably dead immediately before
// instruction i: registers written before being read on the straight-line
// continuation within the current basic block. Conservative: a register
// whose fate is unknown when the block ends is treated as live. RSP is
// never reported dead.
func (p *Program) DeadRegsAt(i int) isa.RegSet {
	var dead, read isa.RegSet
	end := p.BlockEnd(i)
	for j := i; j < end; j++ {
		in := &p.Insts[j].Inst
		if in.Op == isa.CALL || in.Op == isa.RTCALL || in.Op == isa.TRAP {
			break // unknown effects: stop the scan
		}
		r := RegsRead(in)
		w := RegsWritten(in)
		read = read.Union(r)
		dead = dead.Union(w &^ read)
	}
	return dead & noRSP
}

// FlagsDeadAt reports whether the flags register is provably dead before
// instruction i (every flag overwritten before being observed within the
// block). The scan tracks the four flags independently through the
// must-kill set isa.Inst.FlagsKilled (see isa.FlagSet for why a
// whole-register kill would be unsound).
func (p *Program) FlagsDeadAt(i int) bool {
	var killed isa.FlagSet
	end := p.BlockEnd(i)
	for j := i; j < end; j++ {
		in := &p.Insts[j].Inst
		if FlagsRead(in)&^killed != 0 {
			return false // some not-yet-killed flag is observed
		}
		killed |= in.FlagsKilled()
		if killed == isa.AllFlags {
			return true
		}
	}
	return false // block ended without killing all flags: assume live
}

// Batch is a group of memory-access instruction indices whose checks can
// be combined into a single trampoline invoked before the first member
// (paper §6, "Check batching").
type Batch struct {
	Members []int // indices into Program.Insts, in program order
}

// Batches groups checkable memory accesses. want reports whether the
// instruction at index i needs an instrumented check at all (already
// filtered by check elimination). The grouping enforces the paper's three
// batching properties: program order, same basic block, and address
// reorderability (the operand's registers are not written between the
// group head and the member).
func (p *Program) Batches(want func(i int) bool, maxBatch int) []Batch {
	var out []Batch
	var cur Batch
	var written isa.RegSet
	flush := func() {
		if len(cur.Members) > 0 {
			out = append(out, cur)
			cur = Batch{}
		}
		written = 0
	}
	for i := range p.Insts {
		di := &p.Insts[i]
		in := &di.Inst
		if p.IsLeader(di.Addr) {
			flush()
		}
		if want(i) && in.IsMemAccess() {
			regs := in.Mem.Regs()
			if regs.Intersects(written) || (maxBatch > 0 && len(cur.Members) >= maxBatch) {
				flush()
			}
			cur.Members = append(cur.Members, i)
		}
		written = written.Union(RegsWritten(in))
		if in.Op.IsBranch() || in.Op == isa.RTCALL || in.Op == isa.TRAP {
			flush()
		}
	}
	flush()
	return out
}
