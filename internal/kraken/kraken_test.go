package kraken_test

import (
	"testing"

	"redfat/internal/kraken"
	"redfat/internal/redfat"
	"redfat/internal/rtlib"
)

func TestBenchmarkList(t *testing.T) {
	if len(kraken.Benchmarks) != 14 {
		t.Fatalf("Kraken benchmarks = %d, want 14 (paper Fig. 8)", len(kraken.Benchmarks))
	}
}

func TestChromeBuildsAndRuns(t *testing.T) {
	bin, err := kraken.Build(512)
	if err != nil {
		t.Fatal(err)
	}
	if !bin.Stripped {
		t.Error("chrome image not stripped")
	}
	if len(bin.Text().Data) < 20000 {
		t.Errorf("text only %d bytes", len(bin.Text().Data))
	}
	for i := range kraken.Benchmarks {
		v, err := rtlib.RunBaseline(bin, rtlib.RunConfig{
			Input: []uint64{uint64(i), 200},
		})
		if err != nil {
			t.Fatalf("%s: %v", kraken.Benchmarks[i], err)
		}
		if v.Insts < 1000 {
			t.Errorf("%s: only %d instructions", kraken.Benchmarks[i], v.Insts)
		}
	}
}

func TestChromeHardensWritesOnly(t *testing.T) {
	// The paper's §7.3 configuration: (Redzone)+(LowFat) for all writes.
	bin, err := kraken.Build(512)
	if err != nil {
		t.Fatal(err)
	}
	opt := redfat.Defaults()
	opt.CheckReads = false
	hard, rep, err := redfat.Harden(bin, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checks == 0 || rep.Rewrite.Patched == 0 {
		t.Fatalf("no instrumentation: %+v", rep)
	}
	// Differential + overhead across all 14 sub-benchmarks.
	for i := range kraken.Benchmarks {
		input := []uint64{uint64(i), 150}
		base, err := rtlib.RunBaseline(bin, rtlib.RunConfig{Input: input})
		if err != nil {
			t.Fatal(err)
		}
		hv, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{Input: input, AbortOnError: true})
		if err != nil {
			t.Fatalf("%s: hardened: %v", kraken.Benchmarks[i], err)
		}
		if hv.ExitCode != base.ExitCode {
			t.Errorf("%s: checksum %#x != %#x", kraken.Benchmarks[i], hv.ExitCode, base.ExitCode)
		}
		slow := float64(hv.Cycles) / float64(base.Cycles)
		if slow < 1.0 || slow > 4.0 {
			t.Errorf("%s: write-only slowdown %.2f× outside expected band", kraken.Benchmarks[i], slow)
		}
	}
}

func TestScalesWithFunctionCount(t *testing.T) {
	small, err := kraken.Build(256)
	if err != nil {
		t.Fatal(err)
	}
	big, err := kraken.Build(4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(big.Text().Data) < 8*len(small.Text().Data) {
		t.Errorf("text did not scale: %d vs %d", len(big.Text().Data), len(small.Text().Data))
	}
	// Instrumenting the big image must succeed and produce proportional
	// instrumentation.
	hardSmall, repSmall, err := redfat.Harden(small, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	hardBig, repBig, err := redfat.Harden(big, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	_ = hardSmall
	_ = hardBig
	if repBig.Checks < 8*repSmall.Checks {
		t.Errorf("checks did not scale: %d vs %d", repBig.Checks, repSmall.Checks)
	}
}
