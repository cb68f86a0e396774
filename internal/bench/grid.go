package bench

import (
	"fmt"

	"redfat/internal/memcheck"
	"redfat/internal/profile"
	"redfat/internal/redfat"
	"redfat/internal/relf"
	"redfat/internal/rtlib"
	"redfat/internal/telemetry"
	"redfat/internal/vm"
	"redfat/internal/workload"
)

// prepared is one benchmark ready for its grid: scaled, built, and run
// once unhardened on its ref input.
type prepared struct {
	bm         *workload.Benchmark
	bin        *relf.Binary
	baseCycles uint64
	baseExit   uint64
	allow      profile.AllowList // Table 1 only: the Fig. 5 phase-1 allow-list
}

// resolve looks benchmarks up by name; a nil list selects def.
func resolve(names []string, def []*workload.Benchmark) ([]*workload.Benchmark, error) {
	if names == nil {
		return def, nil
	}
	bms := make([]*workload.Benchmark, len(names))
	for i, name := range names {
		if bms[i] = workload.ByName(name); bms[i] == nil {
			return nil, fmt.Errorf("bench: unknown benchmark %q", name)
		}
	}
	return bms, nil
}

// prepare resolves names (nil = def), then scales, builds and baselines
// each benchmark as one pool unit named what/prep. withAllow also
// derives each benchmark's allow-list from its train input (paper
// methodology, Fig. 5 phase 1).
func (h *Harness) prepare(what string, names []string, def []*workload.Benchmark, scale float64, withAllow bool) ([]*prepared, error) {
	bms, err := resolve(names, def)
	if err != nil {
		return nil, err
	}
	return fanOut(h, what+"/prep", len(bms),
		func(i int) string { return bms[i].Name },
		func(i int, reg *telemetry.Registry) (*prepared, error) {
			bm := scaled(bms[i], scale)
			bin, err := bm.Build()
			if err != nil {
				return nil, err
			}
			base, err := rtlib.RunBaseline(bin, rtlib.RunConfig{Input: bm.RefInput(), Metrics: reg})
			if err != nil {
				return nil, fmt.Errorf("%s baseline: %w", bm.Name, err)
			}
			p := &prepared{bm: bm, bin: bin, baseCycles: base.Cycles, baseExit: base.ExitCode}
			if withAllow {
				if p.allow, err = allowListFor(bin, bm, reg); err != nil {
					return nil, err
				}
			}
			return p, nil
		})
}

func allowListFor(bin *relf.Binary, bm *workload.Benchmark, reg *telemetry.Registry) (profile.AllowList, error) {
	profBin, _, err := redfat.Harden(bin, profile.PhaseOneOptions(redfat.Defaults()))
	if err != nil {
		return nil, err
	}
	p := profile.NewProfiler()
	_, rt, err := rtlib.RunHardened(profBin, rtlib.RunConfig{Input: bm.TrainInput(), Metrics: reg})
	if err != nil {
		return nil, fmt.Errorf("%s profiling: %w", bm.Name, err)
	}
	p.Accumulate(rt)
	return p.AllowList(), nil
}

func scaled(bm *workload.Benchmark, scale float64) *workload.Benchmark {
	cp := *bm
	cp.RefScale = uint64(float64(bm.RefScale) * scale)
	if cp.RefScale < 800 {
		cp.RefScale = 800
	}
	cp.TrainScale = cp.RefScale / 8
	return &cp
}

// column is one configuration of a grid: the options every benchmark is
// hardened under (with the benchmark's allow-list), or the Memcheck model.
type column struct {
	label string
	opt   redfat.Options
	// noIndirect also turns indirect-flow recovery off at run time.
	noIndirect bool
	// memcheck runs the unhardened binary under the Memcheck model.
	memcheck bool
}

// cell is one measured run.
type cell struct {
	cycles   uint64
	exit     uint64
	exitOK   bool            // grid cells: exit checksum matches the baseline
	coverage float64         // dynamic full-check coverage
	sites    map[uint64]bool // distinct error sites
	resolved int             // recovered indirect-flow claims
	elimDom  int             // checks removed as dominated
}

// hardenRun hardens bin under opt and runs it on cfg.
func hardenRun(bin *relf.Binary, opt redfat.Options, cfg rtlib.RunConfig) (cell, error) {
	hard, rep, err := redfat.Harden(bin, opt)
	if err != nil {
		return cell{}, err
	}
	c, err := runHardened(hard, cfg)
	c.resolved, c.elimDom = rep.IndirectResolved, rep.ElimDominated
	return c, err
}

// runHardened runs an already hardened binary on cfg.
func runHardened(hard *relf.Binary, cfg rtlib.RunConfig) (cell, error) {
	v, rt, err := rtlib.RunHardened(hard, cfg)
	if err != nil {
		return cell{}, err
	}
	return cell{cycles: v.Cycles, exit: v.ExitCode, coverage: rt.Coverage(),
		sites: vm.ErrorSites(v.Errors)}, nil
}

// grid measures every (prepared benchmark × column) cell as one pool unit
// named bench/label, comparing each cell's exit checksum with its
// benchmark's baseline, and returns the cells as cells[bench][column].
func (h *Harness) grid(what string, preps []*prepared, cols []column) ([][]cell, error) {
	nc := len(cols)
	flat, err := fanOut(h, what, len(preps)*nc,
		func(i int) string { return preps[i/nc].bm.Name + "/" + cols[i%nc].label },
		func(i int, reg *telemetry.Registry) (cell, error) {
			p, col := preps[i/nc], cols[i%nc]
			cfg := rtlib.RunConfig{Input: p.bm.RefInput(), NoIndirect: col.noIndirect, Metrics: reg}
			var (
				c   cell
				err error
			)
			if col.memcheck {
				var v *vm.VM
				if v, err = memcheck.Run(p.bin, cfg); err == nil {
					c = cell{cycles: v.Cycles, exit: v.ExitCode}
				}
			} else {
				opt := col.opt
				opt.AllowList = p.allow
				c, err = hardenRun(p.bin, opt, cfg)
			}
			if err != nil {
				return cell{}, fmt.Errorf("%s/%s: %w", p.bm.Name, col.label, err)
			}
			c.exitOK = c.exit == p.baseExit
			return c, nil
		})
	if err != nil {
		return nil, err
	}
	cells := make([][]cell, len(preps))
	for b := range cells {
		cells[b] = flat[b*nc : (b+1)*nc]
	}
	return cells, nil
}

// total is one column of an ablation summed over its suite.
type total struct {
	cycles   uint64
	slowdown float64 // cycles over the suite's baseline cycles
	resolved int
	elimDom  int
}

// sweep runs an ablation: every column over the named benchmarks (nil =
// def), every cell's exit checksum required to match its baseline, each
// column folded into suite totals.
func (h *Harness) sweep(what string, names []string, def []*workload.Benchmark, scale float64, cols []column) ([]total, error) {
	preps, err := h.prepare(what, names, def, scale, false)
	if err != nil {
		return nil, err
	}
	cells, err := h.grid(what, preps, cols)
	if err != nil {
		return nil, err
	}
	var baseCycles uint64
	totals := make([]total, len(cols))
	for b, p := range preps {
		baseCycles += p.baseCycles
		for c, cl := range cells[b] {
			if !cl.exitOK {
				return nil, fmt.Errorf("bench: %s checksum changed under %s", p.bm.Name, cols[c].label)
			}
			totals[c].cycles += cl.cycles
			totals[c].resolved += cl.resolved
			totals[c].elimDom += cl.elimDom
		}
	}
	for c := range totals {
		totals[c].slowdown = float64(totals[c].cycles) / float64(baseCycles)
	}
	return totals, nil
}
