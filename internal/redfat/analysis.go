package redfat

import (
	"encoding/json"
	"io"
	"sort"

	"redfat/internal/cfg"
	"redfat/internal/relf"
)

// FuncStats is the per-function slice of an analysis report. The JSON
// encoding is struct-driven, so key order is stable across runs.
type FuncStats struct {
	Name     string `json:"name"`
	Addr     uint64 `json:"addr"`
	Insts    int    `json:"insts"`
	Blocks   int    `json:"blocks"`
	Edges    int    `json:"edges"`
	DomDepth int    `json:"dom_depth"`

	// DeadRegHist[k] counts instructions at which k of the trampoline's
	// four scratch slots could be served by provably dead registers
	// under the whole-CFG liveness solution (k = min(4, dead count)).
	DeadRegHist [5]int `json:"dead_reg_hist"`

	// Site-selection outcome for the function's memory operands, per
	// eliminating pass. ChecksEmitted counts operand-level checks
	// before merging (merging changes records, not protection).
	Operands      int `json:"operands"`
	SkippedReads  int `json:"skipped_reads"`
	ElimSyntactic int `json:"elim_syntactic"`
	ElimDominated int `json:"elim_dominated"`
	ChecksEmitted int `json:"checks_emitted"`
}

// Analysis is the machine-readable dump behind redfat -analysis-report:
// what the dataflow engine concluded about each function and where each
// elimination pass fired.
type Analysis struct {
	Functions []FuncStats `json:"functions"`
	Total     FuncStats   `json:"total"`
}

// WriteJSON writes the report as indented JSON with stable key order.
func (a *Analysis) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// Analyze runs the dataflow engine over bin and reports per-function
// statistics under the site-selection policy of opt, without rewriting
// anything. Instructions outside every function symbol are attributed
// to a synthetic "(outside function symbols)" entry.
func Analyze(bin *relf.Binary, opt Options) (*Analysis, error) {
	prog, err := cfg.Disassemble(bin)
	if err != nil {
		return nil, err
	}
	df := cfg.NewDataflowOpts(prog, cfg.GraphOptions{NoIndirect: opt.NoIndirect})

	// Function ranges from the symbol table, sorted by address; each
	// covers up to the next function start.
	type fn struct {
		name string
		addr uint64
	}
	var fns []fn
	for _, sym := range bin.Symbols {
		if sym.Func {
			fns = append(fns, fn{sym.Name, sym.Addr})
		}
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].addr < fns[j].addr })

	stats := make([]FuncStats, len(fns)+1)
	stats[0] = FuncStats{Name: "(outside function symbols)"}
	for i, f := range fns {
		stats[i+1] = FuncStats{Name: f.name, Addr: f.addr}
	}
	fnOf := func(addr uint64) *FuncStats {
		// Last function starting at or before addr.
		k := sort.Search(len(fns), func(i int) bool { return fns[i].addr > addr })
		return &stats[k] // k==0 → outside every function
	}

	// Instruction-level: counts, the dead-register histogram and the
	// site-selection outcome of every memory operand.
	sel := selectSites(prog, df, opt)
	for i := range prog.Insts {
		fs := fnOf(prog.Insts[i].Addr)
		fs.Insts++
		k := df.DeadRegsAt(i).Count()
		if k > 4 {
			k = 4
		}
		fs.DeadRegHist[k]++
		if sel.decision[i] != noOperand {
			fs.Operands++
		}
		switch sel.decision[i] {
		case skippedRead:
			fs.SkippedReads++
		case elimSyntactic:
			fs.ElimSyntactic++
		case elimDominated:
			fs.ElimDominated++
		case checked:
			fs.ChecksEmitted++
		}
	}

	// Block-level: CFG size and dominator-tree depth.
	for b := range df.Graph.Blocks {
		blk := &df.Graph.Blocks[b]
		fs := fnOf(prog.Insts[blk.Start].Addr)
		fs.Blocks++
		// Unknown blocks record no successors, so Edges counts proven
		// edges only; their ⊤ flow shows up as shallow dominator depth.
		fs.Edges += len(blk.Succs)
		if d := df.Dom.Depth(b); d > fs.DomDepth {
			fs.DomDepth = d
		}
	}

	a := &Analysis{Total: FuncStats{Name: "total"}}
	for i := range stats {
		fs := &stats[i]
		if i > 0 || fs.Insts > 0 { // keep the synthetic entry only if used
			a.Functions = append(a.Functions, *fs)
		}
		t := &a.Total
		t.Insts += fs.Insts
		t.Blocks += fs.Blocks
		t.Edges += fs.Edges
		if fs.DomDepth > t.DomDepth {
			t.DomDepth = fs.DomDepth
		}
		for k := range fs.DeadRegHist {
			t.DeadRegHist[k] += fs.DeadRegHist[k]
		}
		t.Operands += fs.Operands
		t.SkippedReads += fs.SkippedReads
		t.ElimSyntactic += fs.ElimSyntactic
		t.ElimDominated += fs.ElimDominated
		t.ChecksEmitted += fs.ChecksEmitted
	}
	return a, nil
}
