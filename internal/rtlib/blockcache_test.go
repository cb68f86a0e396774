package rtlib_test

import (
	"reflect"
	"strings"
	"testing"

	"redfat/internal/profile"
	"redfat/internal/redfat"
	"redfat/internal/rtlib"
	"redfat/internal/telemetry"
	"redfat/internal/vm"
	"redfat/internal/workload"
)

// stripHostOnly removes the vm.icache.* and vm.jit.* metrics from a
// snapshot: they describe host-side machinery — the block cache and the
// superblock tier, whose activity legitimately differs with the tier on
// or off. Everything else — retired counts, loads, stores, branches,
// cycles, check and allocator metrics — is guest-derived and must be
// bit-identical across the engines.
func stripHostOnly(s *telemetry.Snapshot) *telemetry.Snapshot {
	hostOnly := func(name string) bool {
		return strings.HasPrefix(name, "vm.icache.") || strings.HasPrefix(name, "vm.jit.")
	}
	for name := range s.Counters {
		if hostOnly(name) {
			delete(s.Counters, name)
		}
	}
	for name := range s.Gauges {
		if hostOnly(name) {
			delete(s.Gauges, name)
		}
	}
	for name := range s.Histograms {
		if hostOnly(name) {
			delete(s.Histograms, name)
		}
	}
	return s
}

// fastPathConfigs is the engine identity matrix: the superblock tier
// (the reference) and the block interpreter it must reproduce exactly.
var fastPathConfigs = []struct {
	name  string
	noJIT bool
}{
	{"jit", false},
	{"nojit", true},
}

// runBoth executes the same binary under every engine configuration and
// fails the test on any guest-visible divergence from the reference. run
// returns the check runtime of a hardened run (nil for a baseline run),
// whose per-site stats must agree too: the allow-list is derived from
// them.
func runBoth(t *testing.T, name string, run func(cfg rtlib.RunConfig) (*vm.VM, *rtlib.Runtime, error)) {
	t.Helper()
	exec := func(noJIT bool) (*vm.VM, []rtlib.SiteStat, *telemetry.Snapshot, error) {
		reg := telemetry.New()
		v, rt, err := run(rtlib.RunConfig{NoJIT: noJIT, Metrics: reg})
		var stats []rtlib.SiteStat
		if rt != nil {
			stats = rt.Stats
		}
		return v, stats, stripHostOnly(reg.Snapshot()), err
	}
	refVM, refStats, refTel, refErr := exec(fastPathConfigs[0].noJIT)
	for _, c := range fastPathConfigs[1:] {
		gotVM, gotStats, gotTel, gotErr := exec(c.noJIT)
		label := name + "/" + c.name
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: error divergence: ref %v, got %v", label, refErr, gotErr)
		}
		if refErr != nil && refErr.Error() != gotErr.Error() {
			t.Errorf("%s: error text differs: ref %q, got %q", label, refErr, gotErr)
		}
		if refVM.Cycles != gotVM.Cycles {
			t.Errorf("%s: cycles differ: ref %d, got %d", label, refVM.Cycles, gotVM.Cycles)
		}
		if refVM.Insts != gotVM.Insts {
			t.Errorf("%s: insts differ: ref %d, got %d", label, refVM.Insts, gotVM.Insts)
		}
		if refVM.ExitCode != gotVM.ExitCode {
			t.Errorf("%s: exit code differs: ref %d, got %d", label, refVM.ExitCode, gotVM.ExitCode)
		}
		if !reflect.DeepEqual(refVM.Errors, gotVM.Errors) {
			t.Errorf("%s: detected errors differ: ref %v, got %v", label, refVM.Errors, gotVM.Errors)
		}
		if !reflect.DeepEqual(refVM.Output, gotVM.Output) {
			t.Errorf("%s: output differs", label)
		}
		if !reflect.DeepEqual(refStats, gotStats) {
			t.Errorf("%s: per-site check stats differ:\nref: %+v\ngot: %+v", label, refStats, gotStats)
		}
		if !reflect.DeepEqual(refTel, gotTel) {
			t.Errorf("%s: guest-derived telemetry differs:\nref: %+v\ngot: %+v", label, refTel, gotTel)
		}
	}
}

// identityHardenings are the hardening configurations of
// TestBlockCacheIdentity's hardened leg: the default policy, the
// profiling phase of ProfileAndHarden (Profile on, Merge off, no
// dominator elimination), and Table 1's +batch column (elimination and
// batching, no merging, no dominator elimination). The last two leave
// same-plan checks close together inside hot traces.
var identityHardenings = []struct {
	name string
	opt  redfat.Options
}{
	{"defaults", redfat.Defaults()},
	{"profile", profile.PhaseOneOptions(redfat.Defaults())},
	{"table1-batch", redfat.Options{LowFat: true, CheckReads: true, SizeCheck: true,
		NoIndirect: true, Elim: true, Batch: true}},
}

// TestBlockCacheIdentity runs the whole workload suite — baseline and
// hardened under each of identityHardenings — under both engines and
// requires bit-identical guest results.
func TestBlockCacheIdentity(t *testing.T) {
	bms := workload.All()
	if testing.Short() {
		bms = bms[:6]
	}
	for _, bm := range bms {
		cp := *bm
		cp.RefScale = 1500
		cp.TrainScale = 300
		bin, err := cp.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", cp.Name, err)
		}
		input := cp.RefInput()
		runBoth(t, cp.Name+"/baseline", func(cfg rtlib.RunConfig) (*vm.VM, *rtlib.Runtime, error) {
			cfg.Input = input
			v, err := rtlib.RunBaseline(bin, cfg)
			return v, nil, err
		})
		for _, h := range identityHardenings {
			hard, _, err := redfat.Harden(bin, h.opt)
			if err != nil {
				t.Fatalf("%s/%s: harden: %v", cp.Name, h.name, err)
			}
			runBoth(t, cp.Name+"/hardened/"+h.name, func(cfg rtlib.RunConfig) (*vm.VM, *rtlib.Runtime, error) {
				cfg.Input = input
				return rtlib.RunHardened(hard, cfg)
			})
		}
	}
}

// TestFastPathForensicsIdentity runs a hardened workload with a planted
// error plainly (on the superblock tier) and under forensics plus the
// guest profiler (which pins the interpreter tier): cycle counts and the
// detected errors themselves — kind, address, PC, site — must be
// bit-identical; only the forensic backtraces are extra.
func TestFastPathForensicsIdentity(t *testing.T) {
	bm := workload.ByName("calculix") // planted out-of-bounds read
	cp := *bm
	cp.RefScale = 1500
	bin, err := cp.Build()
	if err != nil {
		t.Fatal(err)
	}
	hard, _, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	input := cp.RefInput()
	plain, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{Input: input})
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	prof := &vm.GuestProfiler{Interval: 64}
	full, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{
		Input: input, Forensics: true, Profiler: prof,
	})
	if err != nil {
		t.Fatalf("forensics run: %v", err)
	}
	if len(plain.Errors) == 0 {
		t.Fatal("calculix run detected no errors; forensics path unexercised")
	}
	if prof.SampleCount() == 0 {
		t.Fatal("profiler took no samples")
	}
	if plain.Cycles != full.Cycles || plain.Insts != full.Insts {
		t.Errorf("cycles/insts differ: plain %d/%d, forensics %d/%d",
			plain.Cycles, plain.Insts, full.Cycles, full.Insts)
	}
	stripped := make([]vm.MemError, len(full.Errors))
	for i, e := range full.Errors {
		if e.Stack == nil {
			t.Errorf("error %d: forensics captured no backtrace", i)
		}
		e.Stack = nil
		stripped[i] = e
	}
	if !reflect.DeepEqual(plain.Errors, stripped) {
		t.Errorf("detected errors differ:\nplain:     %v\nforensics: %v", plain.Errors, stripped)
	}
}

// TestBlockCacheCycleBudgetIdentity checks that the cycle-budget abort
// fires at the same cycle count on both engines, including mid-block and
// mid-trace.
func TestBlockCacheCycleBudgetIdentity(t *testing.T) {
	bm := workload.ByName("bzip2")
	cp := *bm
	cp.RefScale = 5000
	bin, err := cp.Build()
	if err != nil {
		t.Fatal(err)
	}
	input := cp.RefInput()
	for _, budget := range []uint64{100, 1001, 54321, 300007} {
		runBoth(t, "bzip2/budget", func(cfg rtlib.RunConfig) (*vm.VM, *rtlib.Runtime, error) {
			cfg.Input = input
			cfg.MaxCycles = budget
			v, err := rtlib.RunBaseline(bin, cfg)
			return v, nil, err
		})
	}
}
