package profile_test

import (
	"bytes"
	"strings"
	"testing"

	"redfat/internal/asm"
	"redfat/internal/isa"
	"redfat/internal/profile"
	"redfat/internal/redfat"
	"redfat/internal/relf"
	"redfat/internal/rtlib"
	"redfat/internal/vm"
)

func TestAllowListSaveLoad(t *testing.T) {
	a := profile.AllowList{0x400010: true, 0x400300: true, 0x7fff0000: true}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := profile.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || !got[0x400010] || !got[0x7fff0000] {
		t.Errorf("round trip = %v", got)
	}
}

func TestAllowListLoadErrors(t *testing.T) {
	if _, err := profile.Load(strings.NewReader("not an allowlist\n")); err == nil {
		t.Error("bad header accepted")
	}
	if _, err := profile.Load(strings.NewReader("redfat-allowlist v1\nzzz\n")); err == nil {
		t.Error("bad address accepted")
	}
	// Comments and blank lines are fine.
	a, err := profile.Load(strings.NewReader("redfat-allowlist v1\n# c\n\n0x10\n"))
	if err != nil || !a[0x10] {
		t.Errorf("comment handling: %v %v", a, err)
	}
}

// antiIdiomProgram returns a program with one anti-idiom access (always
// LowFat-failing) and one idiomatic access; input selects the index.
func antiIdiomProgram(t *testing.T) *relf.Binary {
	t.Helper()
	const K = 64
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.MovRI(isa.RDI, 128)
	b.CallImport("malloc")
	b.MovRR(isa.R12, isa.RAX) // idiomatic pointer
	b.MovRR(isa.RBX, isa.RAX)
	b.AluRI(isa.SUB, isa.RBX, K) // anti-idiom base
	b.CallImport("rf_input")     // index in [K, K+128)
	b.MovRI(isa.RCX, 9)
	b.StoreM(asm.MemBID(isa.RBX, isa.RAX, 1, 0), isa.RCX, 1) // anti-idiom store
	b.StoreI(isa.R12, 8, 7, 8)                               // idiomatic store
	b.Load(isa.RAX, isa.R12, 8, 8)                           // idiomatic load
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

func TestTwoPhaseWorkflow(t *testing.T) {
	bin := antiIdiomProgram(t)
	suite := []rtlib.RunConfig{
		{Input: []uint64{64}},
		{Input: []uint64{100}},
		{Input: []uint64{191}},
	}
	hard, allow, rep, err := profile.Run(bin, suite, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(allow) == 0 {
		t.Fatal("empty allow-list")
	}
	if rep.FullChecks == 0 {
		t.Error("production binary has no full checks")
	}
	if rep.FullChecks >= rep.Checks {
		t.Error("anti-idiom site was not demoted to redzone-only")
	}
	// The production binary runs the previously false-positive input
	// cleanly and still computes the right result.
	v, rt, err := rtlib.RunHardened(hard, rtlib.RunConfig{Input: []uint64{64}, AbortOnError: true})
	if err != nil {
		t.Fatalf("production run: %v", err)
	}
	if v.ExitCode != 7 {
		t.Errorf("exit = %d, want 7", v.ExitCode)
	}
	if cov := rt.Coverage(); cov <= 0 || cov >= 1 {
		t.Errorf("coverage = %v, want strictly between 0 and 1", cov)
	}
}

func TestProfilerFlagsAntiIdiom(t *testing.T) {
	bin := antiIdiomProgram(t)
	opt := redfat.Defaults()
	opt.Profile = true
	opt.Merge = false
	prof, _, err := redfat.Harden(bin, opt)
	if err != nil {
		t.Fatal(err)
	}
	p := profile.NewProfiler()
	_, rt, err := rtlib.RunHardened(prof, rtlib.RunConfig{Input: []uint64{80}})
	if err != nil {
		t.Fatal(err)
	}
	p.Accumulate(rt)
	flagged := p.FlaggedSites()
	if len(flagged) != 1 {
		t.Fatalf("flagged sites = %d, want exactly the anti-idiom", len(flagged))
	}
	if p.AllowList()[flagged[0]] {
		t.Error("flagged site ended up in the allow-list")
	}
}

func TestUnexercisedSitesExcluded(t *testing.T) {
	// A site never executed during profiling must not be allow-listed
	// (it falls back to redzone-only in production — the source of
	// partial coverage in paper Table 1).
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.MovRI(isa.RDI, 64)
	b.CallImport("malloc")
	b.MovRR(isa.RBX, isa.RAX)
	b.CallImport("rf_input")
	b.AluRI(isa.CMP, isa.RAX, 0)
	b.Jcc(isa.JE, "skip")
	b.StoreI(isa.RBX, 0, 1, 8) // cold path: not exercised by the suite
	b.Label("skip")
	b.StoreI(isa.RBX, 8, 2, 8) // hot path
	b.MovRI(isa.RAX, 0)
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, allow, rep, err := profile.Run(bin,
		[]rtlib.RunConfig{{Input: []uint64{0}}}, // only the hot path
		redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(allow) != 1 {
		t.Errorf("allow-list size = %d, want 1 (hot store only)", len(allow))
	}
	if rep.FullChecks != 1 {
		t.Errorf("full checks = %d, want 1", rep.FullChecks)
	}
}

func TestRealErrorDuringProfiling(t *testing.T) {
	// Paper §5: an actual memory error during profiling is classified
	// like a false positive — the site is excluded from the allow-list,
	// so production falls back to redzone-only there (which still
	// detects the error at the redzone).
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.MovRI(isa.RDI, 40)
	b.CallImport("malloc")
	b.MovRR(isa.RBX, isa.RAX)
	b.CallImport("rf_input")
	b.MovRI(isa.RCX, 1)
	b.StoreM(asm.MemBID(isa.RBX, isa.RAX, 8, 0), isa.RCX, 8)
	b.MovRI(isa.RAX, 0)
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Profile with a buggy input (index 6 = out of bounds, but lands in
	// the slot padding/next redzone → LowFat component fails).
	hard, allow, _, err := profile.Run(bin,
		[]rtlib.RunConfig{{Input: []uint64{6}}}, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(allow) != 0 {
		t.Errorf("buggy site allow-listed: %v", allow)
	}
	// Production still detects the incremental overflow via redzones.
	_, _, err = rtlib.RunHardened(hard, rtlib.RunConfig{Input: []uint64{5}, AbortOnError: true})
	if me, ok := err.(*vm.MemError); !ok || me.Kind != vm.ErrOOBWrite {
		t.Errorf("redzone fallback missed the overflow: %v", err)
	}
}
