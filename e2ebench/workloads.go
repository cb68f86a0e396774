package main

import (
	"fmt"

	"redfat"
	"redfat/internal/juliet"
	"redfat/internal/kraken"
	"redfat/internal/profile"
	"redfat/internal/relf"
	"redfat/internal/workload"
)

// bench is one workload: set-up generates and assembles its input
// binaries, and runProg drives the user pipeline over one of them.
type bench interface {
	// setup builds every input binary; spans go to p (asm layer) and
	// the assembled text size is added to its counters.
	setup(p *pass) error
	size() int
	runProg(p *pass, i int)
}

func newBench(name string, tiny bool) (bench, error) {
	switch name {
	case "spec-ref":
		return &specRef{tiny: tiny}, nil
	case "rewrite-large":
		return &rewriteLarge{tiny: tiny}, nil
	case "detect-many":
		return &detectMany{tiny: tiny}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want spec-ref, rewrite-large or detect-many)", name)
}

// build assembles one input binary inside an asm span.
func build(p *pass, f func() (*relf.Binary, error)) (*relf.Binary, error) {
	var (
		bin *relf.Binary
		err error
	)
	p.span("asm.build", func() { bin, err = f() })
	if err == nil {
		p.add("asm.text_bytes", float64(len(bin.Text().Data)))
	}
	return bin, err
}

// specRef is the Table 1 suite: profile on train, harden with the
// allow-list, verify, then run baseline and hardened on ref.
type specRef struct {
	tiny bool
	bms  []*workload.Benchmark
	bins []*relf.Binary
}

func (w *specRef) setup(p *pass) error {
	bms := append(workload.All(), workload.SwitchDense()...)
	if w.tiny {
		bms = []*workload.Benchmark{workload.ByName("calculix"), bms[len(bms)-1]}
		for i, bm := range bms {
			cp := *bm
			cp.RefScale, cp.TrainScale = 800, 100
			bms[i] = &cp
		}
	}
	bins := make([]*relf.Binary, len(bms))
	for i, bm := range bms {
		var err error
		if bins[i], err = build(p, bm.Build); err != nil {
			return err
		}
	}
	w.bms, w.bins = bms, bins
	return nil
}

func (w *specRef) size() int { return len(w.bms) }

func (w *specRef) runProg(p *pass, i int) {
	bm, bin := w.bms[i], w.bins[i]
	hard, ok := w.profileAndHarden(p, bm, bin)
	if !ok || !p.verifyBin(bm.Name, bin, hard) {
		return
	}
	base, _, ok1 := p.exec(bm.Name, bin, false, bm.RefInput(), false)
	h, _, ok2 := p.exec(bm.Name, hard, true, bm.RefInput(), false)
	if !ok1 || !ok2 {
		return
	}
	p.record(bm.Name+"/base", base)
	p.record(bm.Name+"/hard", h)
	p.slowdowns = append(p.slowdowns, float64(h.cycles)/float64(base.cycles))
	if h.exit != base.exit {
		p.fail(bm.Name, "hardened checksum %d != baseline %d", h.exit, base.exit)
	}
	if base.detected() {
		p.fail(bm.Name, "baseline run reported %d errors", len(base.errPCs))
	}
	// Merging and dominator-based elimination let one failing check
	// cover several planted operands, so the default configuration
	// reports between one site and one per planted bug.
	if n := len(h.errPCs); (bm.PlantedBugs == 0) != (n == 0) || n > bm.PlantedBugs {
		p.fail(bm.Name, "detected %d error sites, planted %d", n, bm.PlantedBugs)
	}
}

// profileAndHarden is redfat.ProfileAndHarden on the train input. A
// traced pass spells out its phases (profiling rewrite, train runs,
// allow-list, production rewrite) so each layer gets its own spans.
func (w *specRef) profileAndHarden(p *pass, bm *workload.Benchmark, bin *relf.Binary) (*relf.Binary, bool) {
	var (
		hard *relf.Binary
		err  error
	)
	if p.tr == nil {
		p.timed(&p.harden, "profile.workflow", func() {
			hard, _, _, err = redfat.ProfileAndHarden(bin, [][]uint64{bm.TrainInput()}, redfat.Defaults())
		})
		if err != nil {
			p.fail(bm.Name, "profile and harden: %v", err)
			return nil, false
		}
		return hard, true
	}

	ok := false
	p.timed(&p.harden, "profile.workflow", func() {
		// Phase 1 uses profile.Run's profiling options.
		opt := redfat.Defaults()
		opt.Profile, opt.Merge, opt.CheckReads = true, false, true
		var profBin *relf.Binary
		p.span("redfat.harden", func() { profBin, _, err = redfat.Harden(bin, opt) })
		if err != nil {
			p.fail(bm.Name, "profiling rewrite: %v", err)
			return
		}
		prof := profile.NewProfiler()
		p.span("profile.run", func() {
			// Train runs are part of harden_s, not of run_s.
			run, insts := p.run, p.insts
			_, rt, okRun := p.exec(bm.Name, profBin, true, bm.TrainInput(), false)
			p.run, p.insts = run, insts
			if okRun {
				prof.Accumulate(rt)
			}
			ok = okRun
		})
		if !ok {
			return
		}
		var allow profile.AllowList
		p.span("profile.allowlist", func() { allow = prof.AllowList() })
		p.add("profile.allowlist_sites", float64(len(allow)))
		p.add("profile.flagged_sites", float64(len(prof.FlaggedSites())))
		opt = redfat.Defaults()
		opt.AllowList = allow
		hard, ok = p.hardenBin(bm.Name, nil, bin, opt)
	})
	return hard, ok
}

// rewriteLarge is the Figure 8 scalability case: a Chrome-like binary
// loaded from its bytes, write-only hardened, saved, verified, and run
// baseline and hardened on each Kraken sub-benchmark.
type rewriteLarge struct {
	tiny  bool
	image []byte // the marshalled input binary, as read from disk
}

// rewriteFillers is the largest filler count kraken's fixed section
// layout accepts (50000 overlaps .text with .data).
const rewriteFillers = 40000

// krakenScale is the Kraken sub-benchmark scale rfbench uses for Figure 8.
const krakenScale = 5000

func (w *rewriteLarge) setup(p *pass) error {
	fillers := rewriteFillers
	if w.tiny {
		fillers = 200
	}
	bin, err := build(p, func() (*relf.Binary, error) { return kraken.Build(fillers) })
	if err != nil {
		return err
	}
	w.image, err = bin.Marshal()
	return err
}

func (w *rewriteLarge) size() int { return 1 }

func (w *rewriteLarge) runProg(p *pass, _ int) {
	const name = "kraken"
	var (
		bin *relf.Binary
		err error
	)
	p.span("relf.unmarshal", func() { bin, err = relf.Unmarshal(w.image) })
	if err != nil {
		p.fail(name, "unmarshal: %v", err)
		return
	}
	p.add("relf.bytes", float64(len(w.image)))
	opt := redfat.Defaults()
	opt.CheckReads = false // Figure 8: write protection
	hard, ok := p.hardenBin(name, &p.harden, bin, opt)
	if !ok {
		return
	}
	var out []byte
	p.span("relf.marshal", func() { out, err = hard.Marshal() })
	if err != nil {
		p.fail(name, "marshal: %v", err)
		return
	}
	p.add("relf.bytes", float64(len(out)))
	if !p.verifyBin(name, bin, hard) {
		return
	}
	scale := uint64(krakenScale)
	if w.tiny {
		scale = 50
	}
	for i, sub := range kraken.Benchmarks {
		input := []uint64{uint64(i), scale}
		base, _, ok1 := p.exec(sub, bin, false, input, false)
		h, _, ok2 := p.exec(sub, hard, true, input, true)
		if !ok1 || !ok2 {
			continue
		}
		p.record(sub+"/base", base)
		p.record(sub+"/hard", h)
		p.slowdowns = append(p.slowdowns, float64(h.cycles)/float64(base.cycles))
		if h.exit != base.exit {
			p.fail(sub, "hardened exit %d != baseline %d", h.exit, base.exit)
		}
		if h.detected() || base.detected() {
			p.fail(sub, "unexpected detection (baseline %d, hardened %d sites)", len(base.errPCs), len(h.errPCs))
		}
	}
}

// detectMany is the Table 2 corpus with its extensions, bad and good
// variant of every case: harden, verify, run hardened with abort on.
type detectMany struct {
	tiny   bool
	names  []string
	good   []bool
	inputs [][]uint64
	bins   []*relf.Binary
}

func (w *detectMany) setup(p *pass) error {
	var cases []*juliet.Case
	for _, s := range [][]*juliet.Case{juliet.CVECases(), juliet.JulietCases(),
		juliet.UAFCases(), juliet.DoubleFreeCases(), juliet.LibcCases()} {
		cases = append(cases, s...)
	}
	if w.tiny {
		var some []*juliet.Case
		for i := 0; i < len(cases); i += 61 {
			some = append(some, cases[i])
		}
		cases = some
	}
	w.names, w.good, w.inputs, w.bins = nil, nil, nil, nil
	for _, c := range cases {
		for _, good := range []bool{false, true} {
			mk, in, tag := c.Build, juliet.Trigger(c), "/bad"
			if good {
				mk, in, tag = c.BuildGood, juliet.GoodInput(c), "/good"
			}
			bin, err := build(p, mk)
			if err != nil {
				return fmt.Errorf("%s%s: %w", c.ID, tag, err)
			}
			w.names = append(w.names, c.ID+tag)
			w.good = append(w.good, good)
			w.inputs = append(w.inputs, in)
			w.bins = append(w.bins, bin)
		}
	}
	return nil
}

func (w *detectMany) size() int { return len(w.bins) }

func (w *detectMany) runProg(p *pass, i int) {
	name, bin := w.names[i], w.bins[i]
	hard, ok := p.hardenBin(name, &p.harden, bin, redfat.Defaults())
	if !ok || !p.verifyBin(name, bin, hard) {
		return
	}
	h, _, ok := p.exec(name, hard, true, w.inputs[i], true)
	if !ok {
		return
	}
	p.record(name, h)
	switch {
	case w.good[i] && h.detected():
		p.fail(name, "good variant flagged at %x", h.errPCs)
	case !w.good[i] && !h.detected():
		p.fail(name, "bad variant not detected")
	}
}
