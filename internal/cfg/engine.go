package cfg

import "redfat/internal/isa"

// Dataflow bundles the whole-program analyses the rewriter and the
// translation validator share: the explicit CFG, the worklist liveness
// solution, and the dominator tree. Construction is a single pass over
// the program; queries are per-instruction replays within one block.
type Dataflow struct {
	Graph *Graph
	Live  *Liveness
	Dom   *DomTree
}

// NewDataflow builds the engine for a disassembled program.
func NewDataflow(p *Program) *Dataflow {
	return NewDataflowOpts(p, GraphOptions{})
}

// NewDataflowOpts is NewDataflow with explicit graph-recovery options.
func NewDataflowOpts(p *Program, opts GraphOptions) *Dataflow {
	g := NewGraphOpts(p, opts)
	return &Dataflow{Graph: g, Live: NewLiveness(g), Dom: NewDomTree(g)}
}

// DeadRegsAt returns the registers provably dead before instruction i
// under the whole-CFG liveness solution (never less precise than the
// block-local Program.DeadRegsAt oracle).
func (d *Dataflow) DeadRegsAt(i int) isa.RegSet { return d.Live.DeadRegsAt(i) }

// FlagsDeadAt reports whether all flags are provably dead before
// instruction i under the whole-CFG liveness solution.
func (d *Dataflow) FlagsDeadAt(i int) bool { return d.Live.FlagsDeadAt(i) }

// Redundant runs the dominator-checked available-checks analysis over
// the candidate sites; see RedundantChecks.
func (d *Dataflow) Redundant(sites []CheckSite) map[int]int {
	return RedundantChecks(d.Graph, d.Dom, sites)
}
