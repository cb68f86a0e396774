package redfat_test

import (
	"runtime"
	"testing"

	"redfat"
	"redfat/internal/cfg"
	"redfat/internal/juliet"
	"redfat/internal/kraken"
)

// Per-run host budget of a tiny hardened redfat.Run: memory and
// page-table setup must scale with what the guest touches, not with
// fixed-size tables (a demand-sized frame slab, range-recorded page
// permissions, sparse block tables).
const (
	fixedCostMaxBytes  = 64 << 10
	fixedCostMaxAllocs = 160
)

// TestRunFixedCostBudget guards redfat.Run's per-run fixed cost: one tiny
// Juliet good case, hardened and baseline, run repeatedly, must stay
// within fixedCostMaxBytes and fixedCostMaxAllocs per hardened run. The
// TotalAlloc and Mallocs deltas are deterministic, so the guard holds on
// loaded hosts.
func TestRunFixedCostBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("perf smoke skipped in -short (race) mode")
	}
	c := juliet.JulietCases()[0]
	orig, err := c.BuildGood()
	if err != nil {
		t.Fatal(err)
	}
	hard, _, err := redfat.Harden(orig, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	const runs = 20
	measure := func(bin *redfat.Binary, hardened bool) (bytes, allocs uint64) {
		opt := redfat.RunOptions{Input: juliet.GoodInput(c), Hardened: hardened, AbortOnError: true}
		run := func() {
			res, err := redfat.Run(bin, opt)
			if err != nil || len(res.Errors) != 0 {
				t.Fatalf("good case %s (hardened=%v): %v %v", c.ID, hardened, err, res.Errors)
			}
		}
		run() // warm up one-time initialisation
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs, (after.Mallocs - before.Mallocs) / runs
	}
	bb, ba := measure(orig, false)
	hb, ha := measure(hard, true)
	t.Logf("per run: baseline %d B / %d allocs, hardened %d B / %d allocs", bb, ba, hb, ha)
	if hb > fixedCostMaxBytes || ha > fixedCostMaxAllocs {
		t.Errorf("hardened run costs %d B / %d allocs, budget %d B / %d allocs",
			hb, ha, fixedCostMaxBytes, fixedCostMaxAllocs)
	}
}

// Per-text-instruction host budget of rewriting a Chrome-like binary
// (Harden plus VerifyHardened): disassembly, graph and dataflow must stay
// on dense tables indexed by text offset, instruction or block, not on
// address-keyed hash maps. Measured at 323 B / 0.66 allocs per
// instruction (hash-map tables: 996 B / 1.91); the budget leaves ~40%
// headroom.
const (
	rewriteCostMaxBytes  = 448
	rewriteCostMaxAllocs = 0.9
)

// TestRewriteCostBudget guards the rewriter's host cost per text
// instruction on kraken.Build(2000): the TotalAlloc and Mallocs deltas of
// one Harden and one VerifyHardened, divided by the number of decoded
// instructions, must stay within rewriteCostMaxBytes and
// rewriteCostMaxAllocs. Allocation counts are deterministic, so the guard
// holds on loaded hosts.
func TestRewriteCostBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("perf smoke skipped in -short (race) mode")
	}
	bin, err := kraken.Build(2000)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cfg.Disassemble(bin)
	if err != nil {
		t.Fatal(err)
	}
	insts := len(prog.Insts)
	rewrite := func() {
		hard, _, err := redfat.Harden(bin, redfat.Defaults())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := redfat.VerifyHardened(bin, hard)
		if err != nil || !rep.OK() {
			t.Fatalf("verify: %v %v", err, rep)
		}
	}
	rewrite() // warm up one-time initialisation
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rewrite()
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(insts)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(insts)
	t.Logf("per text instruction (%d): %.1f B / %.3f allocs", insts, bytes, allocs)
	if bytes > rewriteCostMaxBytes || allocs > rewriteCostMaxAllocs {
		t.Errorf("rewrite costs %.1f B / %.3f allocs per instruction, budget %d B / %.2f allocs",
			bytes, allocs, rewriteCostMaxBytes, rewriteCostMaxAllocs)
	}
}
