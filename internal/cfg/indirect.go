// Indirect-flow recovery: shrink the Unknown/⊤ frontier of the CFG by
// resolving indirect jumps through proven jump tables, landing-pad target
// sets, and RET/call-site pairing.
//
// Everything here is gated on the binary being *marker-built* (it carries
// a .rf.jt section, which also opts it into the VM's LPAD enforcement).
// For any other binary the pass is inert and the graph is bit-identical
// to the seed construction. Every step either proves its claim or bails
// back to Unknown — over-approximation is the only failure mode.
//
// The techniques follow the sound-recovery literature: bounded
// value-tracking of the table[idx*8] load pattern with the bound taken
// from the dominating unsigned compare (Datalog Disassembly), and
// CET-style landing-pad markers turning "any address-taken block" into
// the explicit set of LPAD blocks (sound because the VM faults indirect
// transfers to non-LPAD bytes).
package cfg

import (
	"encoding/binary"
	"sort"

	"redfat/internal/isa"
	"redfat/internal/relf"
)

// GraphOptions configures control-flow recovery.
type GraphOptions struct {
	// NoIndirect disables the indirect-flow recovery pass (the ablation
	// knob): indirect jumps and RETs stay Unknown even in marker-built
	// binaries, exactly as the seed graph construction left them.
	NoIndirect bool
}

// ResolvedKind classifies how an indirect-control-flow site was resolved.
type ResolvedKind uint8

// Resolution kinds.
const (
	// ResolvedTable: a bounded jump-table slice — the operand was traced
	// to a load from a declared read-only table with a proven index bound.
	ResolvedTable ResolvedKind = iota
	// ResolvedLPADSet: the marker fallback — targets are all landing-pad
	// blocks, sound because the VM faults any other indirect target.
	ResolvedLPADSet
	// ResolvedRet: a RET paired with the return points of its function's
	// direct call sites (closed-function analysis).
	ResolvedRet
)

// String names the resolution kind.
func (k ResolvedKind) String() string {
	switch k {
	case ResolvedTable:
		return "table"
	case ResolvedLPADSet:
		return "lpadset"
	case ResolvedRet:
		return "ret"
	}
	return "unknown"
}

// Resolved is one recovered indirect-control-flow site. It is the claim
// the verify edge auditor independently re-derives: every field here must
// be re-provable from the binary alone.
type Resolved struct {
	Inst    int          // instruction index of the branch
	Addr    uint64       // address of the branch
	Kind    ResolvedKind // how the target set was established
	Table   uint64       // table base address (ResolvedTable only)
	Bound   uint32       // proven entry count (ResolvedTable only)
	Targets []uint64     // recovered target addresses, ascending
}

// IndirectInfo is the result of the recovery pass, attached to the Graph
// when the binary is marker-built and recovery is enabled.
type IndirectInfo struct {
	// Resolved lists every site whose successor set was recovered
	// (formerly Unknown blocks now carrying real Succs), ascending by
	// address.
	Resolved []Resolved
	// Tables holds the proven table spans (base address + proven entry
	// bound). Words inside these spans are excluded from the
	// address-taken data scan: their flow is represented as explicit
	// edges instead of Entry marks.
	Tables []relf.JumpTable
}

// TargetSets returns site address → target set for the site kinds the
// VM's indirect-branch monitor consults (table and landing-pad-set
// resolved jumps; RET sites retire through a different dispatch path).
func (ii *IndirectInfo) TargetSets() map[uint64]map[uint64]bool {
	out := make(map[uint64]map[uint64]bool)
	for _, r := range ii.Resolved {
		if r.Kind == ResolvedRet {
			continue
		}
		set := make(map[uint64]bool, len(r.Targets))
		for _, t := range r.Targets {
			set[t] = true
		}
		out[r.Addr] = set
	}
	return out
}

// Site returns the resolution record for the instruction at addr, or nil.
func (ii *IndirectInfo) Site(addr uint64) *Resolved {
	for i := range ii.Resolved {
		if ii.Resolved[i].Addr == addr {
			return &ii.Resolved[i]
		}
	}
	return nil
}

// MarkerBuilt reports whether the binary opted into landing-pad
// enforcement and jump-table recovery (it carries a .rf.jt section).
func MarkerBuilt(bin *relf.Binary) bool {
	return bin.Section(relf.JumpTableSection) != nil
}

// declaredTables decodes the .rf.jt section, sorted by base address. A
// corrupt section recovers nothing (nil).
func declaredTables(bin *relf.Binary) []relf.JumpTable {
	sec := bin.Section(relf.JumpTableSection)
	if sec == nil {
		return nil
	}
	tables, err := relf.DecodeJumpTables(sec.Data)
	if err != nil {
		return nil
	}
	sort.Slice(tables, func(i, j int) bool { return tables[i].Addr < tables[j].Addr })
	return tables
}

// declaredEntries returns the largest entry count declared for a table
// based at addr, 0 if none is.
func declaredEntries(tables []relf.JumpTable, addr uint64) uint32 {
	var entries uint32
	k := sort.Search(len(tables), func(i int) bool { return tables[i].Addr >= addr })
	for ; k < len(tables) && tables[k].Addr == addr; k++ {
		entries = max(entries, tables[k].Entries)
	}
	return entries
}

// isIndirect reports whether in is an indirect jump or call.
func isIndirect(in *isa.Inst) bool {
	return (in.Op == isa.JMP || in.Op == isa.CALL) &&
		(in.Form == isa.FR || in.Form == isa.FM)
}

// leaderAt returns the block starting exactly at addr, if any.
func (g *Graph) leaderAt(addr uint64) (int, bool) {
	i, ok := g.Prog.InstAt(addr)
	if !ok {
		return 0, false
	}
	b := g.BlockOf[i]
	if g.Blocks[b].Start != i {
		return 0, false
	}
	return b, true
}

// addressTaken returns the set of text addresses an unmodeled transfer
// could target: the binary entry, function symbols, direct call targets,
// text-range immediates and absolute displacements, and aligned data
// words — the same candidate sources markEntries uses. Words inside
// exclude spans (proven read-only tables, whose flow recovery represents
// as explicit edges) are skipped.
func (g *Graph) addressTaken(exclude []relf.JumpTable) textSet {
	p := g.Prog
	cand := newTextSet(p.base, len(p.index))
	mark := func(v uint64) {
		if v-p.base < uint64(len(p.index)) {
			cand.add(v)
		}
	}

	mark(p.Binary.Entry)
	for _, s := range p.Binary.Symbols {
		if s.Func {
			mark(s.Addr)
		}
	}
	for i := range p.Insts {
		in := &p.Insts[i].Inst
		next := p.Insts[i].Addr + uint64(in.Len)
		if in.Op == isa.CALL && (in.Form == isa.FRel8 || in.Form == isa.FRel32) {
			mark(next + uint64(in.Imm))
		}
		if in.Form == isa.FRI || in.Form == isa.FMI {
			mark(uint64(in.Imm))
		}
		if in.HasMem() && in.Mem.IsAbsolute() {
			mark(uint64(uint32(in.Mem.Disp)))
		}
	}

	excluded := func(addr uint64) bool {
		for _, t := range exclude {
			if addr >= t.Addr && addr < t.Addr+8*uint64(t.Entries) {
				return true
			}
		}
		return false
	}
	for _, s := range p.Binary.Sections {
		if s.Exec || len(s.Data) < 8 {
			continue
		}
		for off := 0; off+8 <= len(s.Data); off += 8 {
			if excluded(s.Addr + uint64(off)) {
				continue
			}
			mark(binary.LittleEndian.Uint64(s.Data[off:]))
		}
	}
	return cand
}

// phantomLPADFree reports whether no interior byte of any decoded
// instruction equals the LPAD opcode. The VM's enforcement checks the raw
// byte at the target, so a stray LPAD-valued immediate byte would be a
// legal dynamic target the decoded-LPAD set misses; the landing-pad-set
// fallback is only sound when no such byte exists.
func phantomLPADFree(p *Program) bool {
	text := p.Binary.Text()
	if text == nil {
		return false
	}
	for i := range p.Insts {
		off := p.Insts[i].Addr - text.Addr
		for k := uint64(1); k < uint64(p.Insts[i].Inst.Len); k++ {
			if isa.Op(text.Data[off+k]) == isa.LPAD {
				return false
			}
		}
	}
	return true
}

// recoverIndirect runs the whole recovery pass over a graph whose static
// edges and predecessor lists are already built. It rewrites the Succs
// of every block it resolves (clearing Unknown), leaves everything else
// untouched, and records the claims in g.Indirect. No-op for binaries
// that are not marker-built.
func (g *Graph) recoverIndirect() {
	p := g.Prog
	if !MarkerBuilt(p.Binary) {
		return
	}
	declared := declaredTables(p.Binary)
	info := &IndirectInfo{}
	g.Indirect = info

	// Guard-bypass check for dispatch blocks uses the unexcluded
	// candidate set: at this point no table has been proven yet.
	cand := g.addressTaken(nil)

	// 1. Bounded jump-table resolution.
	for b := range g.Blocks {
		blk := &g.Blocks[b]
		last := &p.Insts[blk.End-1]
		if last.Inst.Op != isa.JMP || (last.Inst.Form != isa.FR && last.Inst.Form != isa.FM) {
			continue
		}
		res, ok := g.resolveTableJump(b, declared, cand)
		if !ok {
			continue
		}
		g.applyResolution(b, res)
		info.Tables = append(info.Tables, relf.JumpTable{Addr: res.Table, Entries: res.Bound})
	}

	// 2. Landing-pad-set fallback for jumps the slicer could not prove.
	if phantomLPADFree(p) {
		var lpads []uint64
		for b := range g.Blocks {
			i := g.Blocks[b].Start
			if p.Insts[i].Inst.Op == isa.LPAD {
				lpads = append(lpads, p.Insts[i].Addr)
			}
		}
		if len(lpads) > 0 {
			for b := range g.Blocks {
				blk := &g.Blocks[b]
				last := &p.Insts[blk.End-1]
				if !blk.Unknown || last.Inst.Op != isa.JMP ||
					(last.Inst.Form != isa.FR && last.Inst.Form != isa.FM) {
					continue
				}
				g.applyResolution(b, Resolved{
					Inst: blk.End - 1, Addr: last.Addr,
					Kind: ResolvedLPADSet, Targets: lpads,
				})
			}
		}
	}

	g.rebuildPreds()

	// 3. RET/call-site pairing over closed functions (needs the
	// post-resolution predecessor lists).
	g.pairReturns(info)
	g.rebuildPreds()

	sort.Slice(info.Resolved, func(i, j int) bool {
		return info.Resolved[i].Addr < info.Resolved[j].Addr
	})
	sort.Slice(info.Tables, func(i, j int) bool {
		return info.Tables[i].Addr < info.Tables[j].Addr
	})
}

// applyResolution replaces a block's successor set with the resolved
// targets and clears its Unknown mark, recording the claim.
func (g *Graph) applyResolution(b int, res Resolved) {
	blk := &g.Blocks[b]
	blk.Succs = blk.Succs[:0]
	seen := map[int]bool{}
	for _, t := range res.Targets {
		tb, ok := g.leaderAt(t)
		if !ok {
			// Callers validate targets before applying; treat a miss as
			// a bail so a bug here can only lose precision.
			blk.Unknown = true
			return
		}
		if !seen[tb] {
			seen[tb] = true
			blk.Succs = append(blk.Succs, tb)
		}
	}
	blk.Unknown = false
	g.Indirect.Resolved = append(g.Indirect.Resolved, res)
}

// resolveTableJump tries to prove the target set of the indirect jump
// terminating block b as a bounded slice of a declared read-only jump
// table. Any unproven step bails (the block keeps its Unknown ⊤ edges).
func (g *Graph) resolveTableJump(b int, declared []relf.JumpTable, cand textSet) (Resolved, bool) {
	p := g.Prog
	blk := &g.Blocks[b]
	j := blk.End - 1
	jin := &p.Insts[j].Inst
	if p.Binary.PIC {
		return Resolved{}, false // PIC tables hold offsets: not yet proven
	}

	// Trace the jump operand to the table load: either the jump itself
	// loads table(,idx,8), or it jumps through a register whose unique
	// in-block definition is such a load.
	var tm isa.Mem
	loadIdx := j
	switch jin.Form {
	case isa.FM:
		tm = jin.Mem
	case isa.FR:
		reg := jin.Reg
		found := false
		for i := j - 1; i >= blk.Start; i-- {
			in := &p.Insts[i].Inst
			if in.Op == isa.MOV && in.Form == isa.FRM && in.Reg == reg && in.Size == 8 {
				tm = in.Mem
				loadIdx = i
				found = true
				break
			}
			if RegsWritten(in).Has(reg) {
				return Resolved{}, false // defined by something else
			}
		}
		if !found {
			return Resolved{}, false // defined before the block: unproven
		}
		for i := loadIdx + 1; i < j; i++ {
			if RegsWritten(&p.Insts[i].Inst).Has(reg) {
				return Resolved{}, false
			}
		}
	default:
		return Resolved{}, false
	}

	// Operand shape: absolute table base, scaled 8-byte index.
	if tm.Seg != isa.SegNone || tm.Base != isa.RegNone || !tm.HasIndex() || tm.Scale != 8 {
		return Resolved{}, false
	}
	idx := tm.Index
	table := uint64(uint32(tm.Disp))
	entries := declaredEntries(declared, table)
	if entries == 0 {
		return Resolved{}, false // undeclared table: unproven
	}

	// The index must be the value the guard tested: unmodified from block
	// entry to the load.
	for i := blk.Start; i < loadIdx; i++ {
		if RegsWritten(&p.Insts[i].Inst).Has(idx) {
			return Resolved{}, false
		}
	}

	// The dispatch block must be enterable only through its guard edge:
	// a single static predecessor, no address-taken candidate leader, and
	// no landing pad (which would admit enforced indirect entries).
	if len(blk.Preds) != 1 || blk.Preds[0] == b {
		return Resolved{}, false
	}
	if cand.has(p.Insts[blk.Start].Addr) || p.Insts[blk.Start].Inst.Op == isa.LPAD {
		return Resolved{}, false
	}
	bound, ok := g.guardBound(blk.Preds[0], b, idx)
	if !ok || bound == 0 || bound > entries {
		return Resolved{}, false
	}

	targets, ok := g.tableTargets(table, bound)
	if !ok {
		return Resolved{}, false
	}
	return Resolved{
		Inst: j, Addr: p.Insts[j].Addr, Kind: ResolvedTable,
		Table: table, Bound: bound, Targets: targets,
	}, true
}

// guardBound proves an unsigned bound on idx holding on the edge pb→b:
// pb must end with an unsigned conditional jump whose flags come from an
// untouched `cmp $n, %idx`, with exactly one of its two edges reaching b.
// It returns the proven entry count (indices 0..count-1 reach b).
func (g *Graph) guardBound(pb, b int, idx isa.Reg) (uint32, bool) {
	p := g.Prog
	pblk := &g.Blocks[pb]
	t := pblk.End - 1
	tin := &p.Insts[t].Inst
	if !tin.Op.IsCondJump() {
		return 0, false
	}
	next := p.Insts[t].Addr + uint64(tin.Len)
	bAddr := p.Insts[g.Blocks[b].Start].Addr
	taken := next+uint64(tin.Imm) == bAddr
	fall := next == bAddr
	if taken == fall {
		return 0, false // both or neither edge reaches b: ambiguous
	}

	// The nearest flag writer above the jump must be the compare, with
	// the index register untouched in between.
	var n int64
	found := false
	for i := t - 1; i >= pblk.Start; i-- {
		in := &p.Insts[i].Inst
		if RegsWritten(in).Has(idx) {
			return 0, false
		}
		if WritesFlags(in) {
			if in.Op == isa.CMP && in.Form == isa.FRI && in.Reg == idx && in.Size == 8 {
				n = in.Imm
				found = true
			}
			break
		}
	}
	if !found || n < 0 || n >= int64(^uint32(0)) {
		return 0, false
	}

	// Unsigned conditions only: a signed guard would admit "negative"
	// (huge unsigned) indices.
	switch {
	case fall && tin.Op == isa.JA: // not (idx > n) → idx ≤ n
		return uint32(n) + 1, true
	case fall && tin.Op == isa.JAE: // not (idx ≥ n) → idx ≤ n-1
		return uint32(n), true
	case taken && tin.Op == isa.JBE: // idx ≤ n
		return uint32(n) + 1, true
	case taken && tin.Op == isa.JB: // idx < n
		return uint32(n), true
	}
	return 0, false
}

// tableTargets reads the first bound entries of the table and validates
// each: the span must be word-aligned and fully inside a read-only
// non-executable section, and every entry must be the address of a
// decoded block leader whose instruction is a landing pad.
func (g *Graph) tableTargets(table uint64, bound uint32) ([]uint64, bool) {
	p := g.Prog
	if table%8 != 0 {
		return nil, false
	}
	s := p.Binary.SectionAt(table)
	if s == nil || s.Write || s.Exec || len(s.Data) == 0 {
		return nil, false
	}
	off := table - s.Addr
	if off+8*uint64(bound) > uint64(len(s.Data)) {
		return nil, false
	}
	targets := make([]uint64, 0, bound)
	for k := uint64(0); k < uint64(bound); k++ {
		v := binary.LittleEndian.Uint64(s.Data[off+8*k:])
		tb, ok := g.leaderAt(v)
		if !ok || p.Insts[g.Blocks[tb].Start].Inst.Op != isa.LPAD {
			return nil, false
		}
		targets = append(targets, v)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	return targets, true
}

// pairReturns resolves RET blocks of *closed* functions to the return
// points of their direct call sites. A function F is closed when every
// way control can enter it is accounted for: no static edge from outside,
// no address-taken candidate inside (table spans excluded — their flow is
// explicit edges now), no landing pad inside while unproven indirect
// control flow exists anywhere, and F is not the process entry. Under the
// benign-execution model the CFG already assumes for CALL fall-through
// edges, every RET of a closed F then returns to one of its callers'
// return points.
func (g *Graph) pairReturns(info *IndirectInfo) {
	p := g.Prog

	// Is there still unproven indirect control flow that could target an
	// arbitrary landing pad?
	unresolvedIndirect := false
	for b := range g.Blocks {
		blk := &g.Blocks[b]
		last := &p.Insts[blk.End-1].Inst
		if isIndirect(last) && (blk.Unknown || last.Op == isa.CALL) {
			// Indirect calls are never resolved by this pass; any one of
			// them can enter any landing pad.
			unresolvedIndirect = true
			break
		}
	}

	cand := g.addressTaken(info.Tables)

	type fn struct {
		lo, hi uint64
	}
	var funcs []fn
	for _, s := range p.Binary.Symbols {
		if s.Func && s.Size > 0 {
			funcs = append(funcs, fn{lo: s.Addr, hi: s.Addr + s.Size})
		}
	}
	sort.Slice(funcs, func(i, j int) bool { return funcs[i].lo < funcs[j].lo })

	blockAddr := func(b int) uint64 { return p.Insts[g.Blocks[b].Start].Addr }

	for _, f := range funcs {
		if p.Binary.Entry >= f.lo && p.Binary.Entry < f.hi {
			continue // entered by the loader; its RET exits the process
		}
		inF := func(a uint64) bool { return a >= f.lo && a < f.hi }

		closed := true
		var retBlocks []int
		for b := range g.Blocks {
			if !inF(blockAddr(b)) {
				continue
			}
			blk := &g.Blocks[b]
			for _, pr := range blk.Preds {
				if !inF(blockAddr(pr)) {
					closed = false // static edge from outside (tail call in)
				}
			}
			for i := blk.Start; i < blk.End; i++ {
				if cand.has(p.Insts[i].Addr) && p.Insts[i].Addr != f.lo {
					closed = false // address taken: indirect entry possible
				}
				if p.Insts[i].Inst.Op == isa.LPAD && unresolvedIndirect {
					closed = false // unproven indirect flow may land here
				}
			}
			if p.Insts[blk.End-1].Inst.Op == isa.RET {
				retBlocks = append(retBlocks, b)
			}
		}
		// The function's own entry must not be address-taken beyond being
		// a symbol / direct call target (those are paired below).
		if cand.has(f.lo) && !onlyCallTaken(p, f.lo) {
			closed = false
		}
		if !closed || len(retBlocks) == 0 {
			continue
		}

		// Collect the return points of every direct call into F.
		var returns []uint64
		ok := true
		for i := range p.Insts {
			in := &p.Insts[i].Inst
			if in.Op != isa.CALL || (in.Form != isa.FRel8 && in.Form != isa.FRel32) {
				continue
			}
			next := p.Insts[i].Addr + uint64(in.Len)
			if !inF(next + uint64(in.Imm)) {
				continue
			}
			if _, isLeader := g.leaderAt(next); !isLeader {
				ok = false
				break
			}
			returns = append(returns, next)
		}
		if !ok || len(returns) == 0 {
			continue
		}
		sort.Slice(returns, func(i, j int) bool { return returns[i] < returns[j] })

		for _, rb := range retBlocks {
			ri := g.Blocks[rb].End - 1
			g.applyResolution(rb, Resolved{
				Inst: ri, Addr: p.Insts[ri].Addr,
				Kind: ResolvedRet, Targets: returns,
			})
		}
	}
}

// onlyCallTaken reports whether addr's only address-taken occurrences in
// code are as a direct call target or function symbol — i.e. it never
// appears as a data word, immediate operand, or absolute displacement
// that could feed an indirect transfer.
func onlyCallTaken(p *Program, addr uint64) bool {
	for i := range p.Insts {
		in := &p.Insts[i].Inst
		if (in.Form == isa.FRI || in.Form == isa.FMI) && uint64(in.Imm) == addr {
			return false
		}
		if in.HasMem() && in.Mem.IsAbsolute() && uint64(uint32(in.Mem.Disp)) == addr {
			return false
		}
	}
	for _, s := range p.Binary.Sections {
		if s.Exec || len(s.Data) < 8 {
			continue
		}
		for off := 0; off+8 <= len(s.Data); off += 8 {
			if binary.LittleEndian.Uint64(s.Data[off:]) == addr {
				return false
			}
		}
	}
	return true
}
