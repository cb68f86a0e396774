package cfg

import "redfat/internal/isa"

// CheckKey identifies the address shape of a checked memory operand.
// Two operands with the same key and unredefined registers compute
// addresses that differ only by displacement.
type CheckKey struct {
	Seg         isa.Seg
	Base, Index isa.Reg
	Scale       uint8
	Mode        uint8 // check mode must match for one check to subsume another
}

// CheckSite is a (potential or emitted) check: the memory operand of
// instruction Inst covering guest addresses base+[Lo, Hi) relative to
// the operand's address shape.
type CheckSite struct {
	Inst   int   // index into Program.Insts
	Mode   uint8 // check mode (redfat.Mode* / rtlib.Mode*)
	Lo, Hi int64 // covered displacement span, Hi exclusive
}

// availFact records that a check with key K, performed at site Witness,
// reaches the current program point on every path with the operand's
// registers unredefined and no allocator-visible call in between.
type availFact struct {
	Witness int // providing site's instruction index
	Lo, Hi  int64
}

// keyedFact is one entry of a fact set.
type keyedFact struct {
	Key  CheckKey
	Fact availFact
}

// facts is the analysis state at a program point: at most one fact per
// CheckKey. A point holds few facts (one per live address shape), so a
// linear scan of a slice beats a hash map.
type facts []keyedFact

func (fs facts) lookup(k CheckKey) (availFact, bool) {
	for i := range fs {
		if fs[i].Key == k {
			return fs[i].Fact, true
		}
	}
	return availFact{}, false
}

func (fs facts) set(k CheckKey, f availFact) facts {
	for i := range fs {
		if fs[i].Key == k {
			fs[i].Fact = f
			return fs
		}
	}
	return append(fs, keyedFact{k, f})
}

// equal reports whether fs and o hold the same facts, in any order.
func (fs facts) equal(o facts) bool {
	if len(fs) != len(o) {
		return false
	}
	for _, e := range fs {
		if f, ok := o.lookup(e.Key); !ok || f != e.Fact {
			return false
		}
	}
	return true
}

// clone returns a copy of fs with its own backing array (nil if empty).
func (fs facts) clone() facts { return append(facts(nil), fs...) }

// Avail is the forward "available checks" analysis. The domain maps
// each CheckKey to at most one availFact; the transfer function kills a
// key when any of its address registers may be written (RegsWritten,
// which saturates at CALL/RTCALL) or when the heap may change shape
// (CALL/RTCALL/TRAP kill everything, because free/realloc in the callee
// can invalidate a previously passing check), and generates the site's
// own fact at every check site. The meet is intersection with witness
// equality: a fact survives a join only if the same providing check
// reaches along every predecessor — which implies the witness dominates
// the join point, since facts are born only at their witness.
type Avail struct {
	g     *Graph
	sites []CheckSite
	gen   []int32 // inst index → index into sites + 1; 0 = no site
	in    []facts // block id → facts at block entry; nil if never reached
}

// siteKey derives the CheckKey of a site from its instruction operand.
// RIP-relative operands return ok=false: their absolute address depends
// on the instruction's own PC, so no two sites share an address shape.
func (p *Program) siteKey(s CheckSite) (CheckKey, bool) {
	in := &p.Insts[s.Inst].Inst
	if !in.HasMem() || in.Mem.Base == isa.RIP {
		return CheckKey{}, false
	}
	return CheckKey{
		Seg:   in.Mem.Seg,
		Base:  in.Mem.Base,
		Index: in.Mem.Index,
		Scale: in.Mem.Scale,
		Mode:  s.Mode,
	}, true
}

// NewAvail solves the availability equations with the given generating
// sites (deduplicated by instruction; later entries win).
func NewAvail(g *Graph, gens []CheckSite) *Avail {
	av := &Avail{
		g:     g,
		sites: gens,
		gen:   make([]int32, len(g.Prog.Insts)),
		in:    make([]facts, len(g.Blocks)),
	}
	for k, s := range gens {
		av.gen[s.Inst] = int32(k) + 1
	}
	av.solve()
	return av
}

// solve runs the worklist to the greatest fixpoint. A block whose out
// state is not yet computed is ⊤ (all facts), neutral for the meet.
func (av *Avail) solve() {
	g := av.g
	isEntry := make([]bool, len(g.Blocks))
	work := make([]int, 0, len(g.Blocks))
	inWork := make([]bool, len(g.Blocks))
	for _, e := range g.Entries {
		isEntry[e] = true
		work = append(work, e)
		inWork[e] = true
	}
	out := make([]facts, len(g.Blocks))
	done := make([]bool, len(g.Blocks)) // out[b] computed

	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b] = false

		// Meet over predecessors (entries additionally meet with ∅
		// from the virtual root, i.e. their in-state stays empty).
		var in facts
		if !isEntry[b] {
			met := false
			for _, p := range g.Blocks[b].Preds {
				if !done[p] {
					continue // unvisited predecessor: ⊤, neutral for meet
				}
				if !met {
					in, met = out[p].clone(), true
					continue
				}
				kept := in[:0]
				for _, e := range in {
					if f, ok := out[p].lookup(e.Key); ok && f == e.Fact {
						kept = append(kept, e)
					}
				}
				in = kept
			}
			if !met {
				continue // no predecessor visited yet
			}
		}

		if done[b] && av.in[b].equal(in) {
			continue
		}
		av.in[b] = in
		newOut := av.transferBlock(b, in)
		if done[b] && out[b].equal(newOut) {
			continue
		}
		out[b], done[b] = newOut, true
		for _, s := range g.Blocks[b].Succs {
			if !inWork[s] {
				inWork[s] = true
				work = append(work, s)
			}
		}
	}
	// Blocks never visited keep in == nil: ∅ at query time.
}

// transferBlock pushes a fact set through one block.
func (av *Avail) transferBlock(b int, in facts) facts {
	fs := in.clone()
	blk := &av.g.Blocks[b]
	for j := blk.Start; j < blk.End; j++ {
		fs = av.transferInst(j, fs, nil)
	}
	return fs
}

// transferInst applies instruction j to the fact set, in place, and
// returns the result. If onSite is non-nil it is called for the site
// generated at j (before the gen), with the fact currently available for
// the site's key, so callers can observe coverage exactly as the
// dataflow sees it.
func (av *Avail) transferInst(j int, fs facts, onSite func(s CheckSite, f availFact, ok bool)) facts {
	p := av.g.Prog
	in := &p.Insts[j].Inst

	// The check conceptually executes before the instruction's own
	// effects, so gen precedes the kill.
	if g := av.gen[j]; g != 0 {
		s := av.sites[g-1]
		if k, keyOK := p.siteKey(s); keyOK {
			if onSite != nil {
				f, have := fs.lookup(k)
				onSite(s, f, have)
			}
			fs = fs.set(k, availFact{Witness: s.Inst, Lo: s.Lo, Hi: s.Hi})
		} else if onSite != nil {
			onSite(s, availFact{}, false)
		}
	}

	switch in.Op {
	case isa.CALL, isa.RTCALL, isa.TRAP:
		// The callee may free or reallocate: no check survives.
		return fs[:0]
	}
	if w := RegsWritten(in); w != 0 {
		kept := fs[:0]
		for _, e := range fs {
			if !w.Has(e.Key.Base) && !w.Has(e.Key.Index) {
				kept = append(kept, e)
			}
		}
		fs = kept
	}
	return fs
}

// replayTo returns the fact set holding immediately before instruction
// i (before i's own gen).
func (av *Avail) replayTo(i int) facts {
	b := av.g.BlockOf[i]
	fs := av.in[b].clone()
	for j := av.g.Blocks[b].Start; j < i; j++ {
		fs = av.transferInst(j, fs, nil)
	}
	return fs
}

// CoverageAt reports whether the operand span of s is covered by an
// available check at its instruction, and by which witness site.
func (av *Avail) CoverageAt(s CheckSite) (witness int, ok bool) {
	k, keyOK := av.g.Prog.siteKey(s)
	if !keyOK {
		return 0, false
	}
	f, have := av.replayTo(s.Inst).lookup(k)
	if !have || f.Lo > s.Lo || f.Hi < s.Hi {
		return 0, false
	}
	return f.Witness, true
}

// RedundantChecks runs the availability analysis over the candidate
// sites and returns, for every site whose span is already covered by an
// available check, the instruction index of the providing site. Witness
// chains are resolved to their non-eliminated root: if A covers B and B
// covers C, C's recorded provider is A, whose check is actually emitted.
// Every returned provider's block dominates the eliminated site's block
// (asserted via dom; redundancy through a join of distinct checks does
// not survive the witness-equality meet).
func RedundantChecks(g *Graph, dom *DomTree, sites []CheckSite) map[int]int {
	av := NewAvail(g, sites)
	redundant := make(map[int]int)

	record := func(s CheckSite, f availFact, ok bool) {
		if !ok || f.Witness == s.Inst || f.Lo > s.Lo || f.Hi < s.Hi {
			return
		}
		// Safety net: the witness-equality meet guarantees the witness
		// block dominates; drop the elimination if it ever did not.
		if !dom.Dominates(g.BlockOf[f.Witness], g.BlockOf[s.Inst]) {
			return
		}
		redundant[s.Inst] = f.Witness
	}
	for b := range g.Blocks {
		fs := av.in[b].clone()
		for j := g.Blocks[b].Start; j < g.Blocks[b].End; j++ {
			fs = av.transferInst(j, fs, record)
		}
	}

	// Resolve witness chains to non-eliminated roots.
	resolve := func(w int) int {
		for {
			next, ok := redundant[w]
			if !ok {
				return w
			}
			w = next
		}
	}
	for i, w := range redundant {
		redundant[i] = resolve(w)
	}
	return redundant
}
