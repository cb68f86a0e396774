package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"redfat"
	"redfat/internal/cfg"
	"redfat/internal/heap"
	"redfat/internal/lowfat"
	"redfat/internal/mem"
	"redfat/internal/redzone"
	"redfat/internal/relf"
	"redfat/internal/rtlib"
	"redfat/internal/telemetry"
	"redfat/internal/vm"
)

// maxCycles is the execution budget redfat.Run applies when RunOptions
// leaves MaxCycles at zero; the traced runner must use the same one.
const maxCycles = 2_000_000_000

// pass accumulates one pass of a workload's pipeline over every program:
// end-to-end timings, correctness failures, the guest fingerprint and,
// when traced, the per-layer counters.
type pass struct {
	tr *tracer // nil for an untraced pass

	total, harden, verify, run time.Duration // thread CPU time (cpuNow)
	wall                       time.Duration // wall-clock time of the pass
	allocBytes                 uint64
	insts                      uint64 // guest instructions retired in run
	progMS                     []float64
	slowdowns                  []float64 // hardened/baseline guest cycles

	programs, failedProgs int
	progFailed            bool
	failures              []string
	records               []string // fingerprint lines

	c map[string]float64 // per-layer counters (traced passes)
}

func newPass(tr *tracer) *pass {
	return &pass{tr: tr, c: make(map[string]float64)}
}

// timed runs f inside a span (traced passes) and adds its CPU time to acc.
func (p *pass) timed(acc *time.Duration, name string, f func()) {
	t0 := cpuNow()
	id := p.tr.begin(name)
	f()
	p.tr.end(id)
	if acc != nil {
		*acc += cpuNow() - t0
	}
}

// span runs f inside a span without charging an end-to-end timer.
func (p *pass) span(name string, f func()) { p.timed(nil, name, f) }

func (p *pass) fail(prog, format string, args ...any) {
	p.progFailed = true
	p.failures = append(p.failures, "FAIL "+prog+": "+fmt.Sprintf(format, args...))
}

func (p *pass) add(name string, v float64) {
	if p.tr != nil {
		p.c[name] += v
	}
}

// digest hashes the fingerprint records in a fixed order, so it does not
// depend on the order in which the programs ran.
func (p *pass) digest() string {
	recs := append([]string(nil), p.records...)
	sort.Strings(recs)
	h := sha256.Sum256([]byte(strings.Join(recs, "\n")))
	return fmt.Sprintf("%x", h[:12])
}

// runOut is what the correctness checks and the fingerprint need from
// one execution.
type runOut struct {
	exit, cycles, insts uint64
	errPCs              []uint64 // distinct detected error sites, ascending
}

func (o runOut) detected() bool { return len(o.errPCs) > 0 }

// record adds the run to the guest fingerprint.
func (p *pass) record(key string, o runOut) {
	p.records = append(p.records, fmt.Sprintf("%s exit=%d cycles=%d insts=%d errs=%x",
		key, o.exit, o.cycles, o.insts, o.errPCs))
}

// exec runs bin once. An untraced pass calls redfat.Run, the public
// entry point. A traced pass calls the layer entry points redfat.Run
// bundles (mem.New, vm.New, the rtlib bindings, Load, Run) so each gets
// its own span; the fingerprint proves both produce the same guest run.
func (p *pass) exec(prog string, bin *redfat.Binary, hardened bool, input []uint64, abort bool) (runOut, *rtlib.Runtime, bool) {
	var (
		o   runOut
		rt  *rtlib.Runtime
		err error
	)
	p.timed(&p.run, "pipeline.run", func() {
		if p.tr == nil {
			var res *redfat.Result
			res, err = redfat.Run(bin, redfat.RunOptions{Input: input, Hardened: hardened, AbortOnError: abort})
			if res != nil {
				o = runOut{exit: res.ExitCode, cycles: res.Cycles, insts: res.Insts}
				o.errPCs = errorPCs(res.Errors, err)
			}
			return
		}
		var v *vm.VM
		v, rt, err = p.execLayers(bin, hardened, input, abort)
		if v != nil {
			o = runOut{exit: v.ExitCode, cycles: v.Cycles, insts: v.Insts}
			o.errPCs = errorPCs(v.Errors, err)
		}
	})
	p.insts += o.insts
	var me *vm.MemError
	if errors.As(err, &me) {
		err = nil
	}
	if err != nil {
		p.fail(prog, "run (hardened=%v): %v", hardened, err)
		return o, rt, false
	}
	return o, rt, true
}

func errorPCs(errs []vm.MemError, err error) []uint64 {
	seen := make(map[uint64]bool)
	for _, e := range errs {
		seen[e.PC] = true
	}
	var me *vm.MemError
	if errors.As(err, &me) {
		seen[me.PC] = true
	}
	out := make([]uint64, 0, len(seen))
	for pc := range seen {
		out = append(out, pc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// execLayers is rtlib.RunBaseline / rtlib.RunHardened at the default
// RunConfig, spelled out call by call, with a telemetry registry
// attached so the per-layer counters can be read afterwards.
func (p *pass) execLayers(bin *relf.Binary, hardened bool, input []uint64, abort bool) (*vm.VM, *rtlib.Runtime, error) {
	reg := telemetry.New()
	var (
		m   *mem.Memory
		v   *vm.VM
		rt  *rtlib.Runtime
		lf  *lowfat.Allocator
		bh  *heap.Heap
		env vm.Bindings
		err error
	)
	p.span("mem.new", func() { m = mem.New() })
	p.span("vm.new", func() { v = vm.New(m) })
	v.Input = input
	v.MaxCycles = maxCycles
	v.AbortOnError = abort && hardened
	v.AttachTelemetry(reg, nil)
	p.span("rtlib.indirect", func() { attachIndirect(v, bin) })
	p.span("rtlib.bind", func() {
		if !hardened {
			bh = heap.New(m)
			bh.AttachTelemetry(reg)
			v.Allocator = bh
			env = rtlib.LibC(bh, m)
			return
		}
		lf = lowfat.New(m)
		h := redzone.NewHeap(lf, m)
		h.AttachTelemetry(reg)
		v.Allocator = h
		p.span("rtlib.runtime_new", func() { rt, err = rtlib.NewRuntime(bin, h) })
		if err != nil {
			return
		}
		rt.AttachTelemetry(reg, nil)
		rtlib.InstallInlineChecks(v, map[*relf.Binary]*rtlib.Runtime{bin: rt})
		env = rtlib.Merge(rtlib.Merge(rtlib.LibC(h, m), rtlib.SpanLibC(h, m)), rt.Bindings())
	})
	if err != nil {
		return v, nil, err
	}
	p.span("vm.load", func() { err = v.Load(bin, env) })
	if err == nil {
		p.span("vm.run", func() { err = v.Run() })
	}

	p.add("vm.insts", float64(v.Insts))
	p.add("vm.cycles", float64(v.Cycles))
	p.add("vm.jit.compiles", float64(reg.CounterValue("vm.jit.compile.count")))
	p.add("vm.jit.exec_insts", float64(reg.CounterValue("vm.jit.exec.insts")))
	p.add("vm.jit.deopts", float64(reg.CounterValue("vm.jit.deopt.count")))
	p.add("vm.icache.chain_hits", float64(reg.CounterValue("vm.icache.chain.hits")))
	p.add("vm.icache.chain_misses", float64(reg.CounterValue("vm.icache.chain.misses")))
	p.add("vm.rtcall.count", float64(reg.CounterValue("vm.rtcall.count")))
	tlb := m.TLB()
	p.add("mem.tlb_hits", float64(tlb.Hits))
	p.add("mem.tlb_misses", float64(tlb.Misses))
	p.add("mem.loads", float64(reg.CounterValue("vm.mem.loads")))
	p.add("mem.stores", float64(reg.CounterValue("vm.mem.stores")))
	p.add("mem.mapped_pages", float64(m.MappedPages()))
	p.add("rtlib.libc_span_checks", float64(reg.CounterValue("vm.libc.span.check.count")))
	if bh != nil {
		allocs, frees, _ := bh.Stats()
		p.add("heap.allocs", float64(allocs))
		p.add("heap.frees", float64(frees))
	}
	if lf != nil {
		st := lf.Stats()
		p.add("lowfat.allocs", float64(st.Allocs))
		p.add("lowfat.frees", float64(st.Frees))
		p.add("lowfat.mapped_bytes", float64(reg.CounterValue("lowfat.mapped.bytes")))
		if q := float64(reg.GaugeValue("redzone.quarantine.bytes")); q > p.c["redzone.quarantine_bytes"] {
			p.c["redzone.quarantine_bytes"] = q
		}
	}
	if rt != nil {
		var execs, fails uint64
		for _, s := range rt.Stats {
			execs += s.Execs
			fails += s.Fails()
		}
		p.add("rtlib.check_execs", float64(execs))
		p.add("rtlib.check_fails", float64(fails))
		p.add("rtlib.coverage_weighted", rt.Coverage()*float64(execs))
	}
	return v, rt, err
}

// attachIndirect mirrors the landing-pad and recovered-edge monitor set
// up by the rtlib runners for marker-built binaries.
func attachIndirect(v *vm.VM, bin *relf.Binary) {
	if !cfg.MarkerBuilt(bin) {
		return
	}
	v.LPADCheck = true
	if bin.PIC {
		return
	}
	prog, err := cfg.Disassemble(bin)
	if err != nil {
		return
	}
	if g := cfg.NewGraph(prog); g.Indirect != nil {
		if ts := g.Indirect.TargetSets(); len(ts) > 0 {
			v.IndirectTargets = ts
		}
	}
}

// hardenBin is redfat.Harden, charged to acc when it is not nil. On
// traced passes it first repeats, in their own spans, the two cfg calls
// Harden makes internally (disassembly and the dataflow engine) on the
// same input, so the cfg layer is timed from outside.
func (p *pass) hardenBin(prog string, acc *time.Duration, bin *redfat.Binary, opt redfat.Options) (*redfat.Binary, bool) {
	if p.tr != nil {
		p.probeCFG(bin, opt)
	}
	var (
		hard *redfat.Binary
		rep  *redfat.Report
		err  error
	)
	p.timed(acc, "redfat.harden", func() { hard, rep, err = redfat.Harden(bin, opt) })
	if err != nil {
		p.fail(prog, "harden: %v", err)
		return nil, false
	}
	p.addReport(rep)
	return hard, true
}

func (p *pass) probeCFG(bin *relf.Binary, opt redfat.Options) {
	var (
		prog *cfg.Program
		df   *cfg.Dataflow
		err  error
	)
	p.span("cfg.disassemble", func() { prog, err = cfg.Disassemble(bin) })
	if err != nil {
		return
	}
	p.span("cfg.dataflow", func() { df = cfg.NewDataflowOpts(prog, cfg.GraphOptions{NoIndirect: opt.NoIndirect}) })
	g := df.Graph
	p.add("cfg.insts", float64(len(prog.Insts)))
	p.add("cfg.blocks", float64(len(g.Blocks)))
	p.add("cfg.edges", float64(g.NumEdges()))
	unknown := 0
	for i := range g.Blocks {
		if g.Blocks[i].Unknown {
			unknown++
		}
	}
	p.add("cfg.unknown_blocks", float64(unknown))
	if g.Indirect != nil {
		p.add("cfg.indirect_resolved", float64(len(g.Indirect.Resolved)))
	}
}

// addReport folds the production rewrite's report into the counters.
func (p *pass) addReport(rep *redfat.Report) {
	p.add("redfat.operands", float64(rep.Operands))
	p.add("redfat.checks", float64(rep.Checks))
	p.add("redfat.eliminated", float64(rep.Eliminated))
	p.add("redfat.elim_dominated", float64(rep.ElimDominated))
	p.add("redfat.merged_away", float64(rep.MergedAway))
	p.add("redfat.failed_sites", float64(rep.FailedSites))
	p.add("e9.t1", float64(rep.Rewrite.T1))
	p.add("e9.t2", float64(rep.Rewrite.T2))
	p.add("e9.t3", float64(rep.Rewrite.T3))
	p.add("e9.tramp_bytes", float64(rep.Rewrite.TrampBytes))
	p.add("e9.patched", float64(rep.Rewrite.Patched))
}

// verifyBin runs translation validation and fails the program on any
// violation.
func (p *pass) verifyBin(prog string, orig, hard *redfat.Binary) bool {
	var (
		rep *redfat.VerifyReport
		err error
	)
	p.timed(&p.verify, "verify.verify", func() { rep, err = redfat.VerifyHardened(orig, hard) })
	if err != nil {
		p.fail(prog, "verify: %v", err)
		return false
	}
	p.add("verify.sites", float64(rep.Checks))
	p.add("verify.violations", float64(len(rep.Violations)))
	if !rep.OK() {
		p.fail(prog, "verify: %d violations, first: %v", len(rep.Violations), rep.Violations[0])
		return false
	}
	return true
}

// printFailures writes every failure line of the passes, without
// repeating a line already printed.
func printFailures(w io.Writer, passes ...*pass) {
	seen := make(map[string]bool)
	for _, p := range passes {
		for _, f := range p.failures {
			if !seen[f] {
				seen[f] = true
				fmt.Fprintln(w, f)
			}
		}
	}
}
