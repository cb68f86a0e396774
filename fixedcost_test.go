package redfat_test

import (
	"runtime"
	"testing"

	"redfat"
	"redfat/internal/juliet"
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
