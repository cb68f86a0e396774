package juliet_test

import (
	"testing"

	"redfat/internal/juliet"
	"redfat/internal/redfat"
	"redfat/internal/rtlib"
	"redfat/internal/vm"
)

func TestUAFSuiteSizes(t *testing.T) {
	if n := len(juliet.UAFCases()); n != 64 {
		t.Errorf("CWE-416 cases = %d, want 64", n)
	}
	if n := len(juliet.DoubleFreeCases()); n != 16 {
		t.Errorf("CWE-415 cases = %d, want 16", n)
	}
}

func TestUAFDetection(t *testing.T) {
	for i, c := range juliet.UAFCases() {
		if i%5 != 0 && !testing.Verbose() {
			continue // sample for test speed; the bench sweeps all
		}
		bin, err := c.Build()
		if err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		hard, _, err := redfat.Harden(bin, redfat.Defaults())
		if err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		v, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{
			Input: juliet.Trigger(c), AbortOnError: true,
		})
		detected := len(v.Errors) > 0
		if me, ok := err.(*vm.MemError); ok {
			if me.Kind != vm.ErrUseAfterFree {
				t.Errorf("%s: kind = %v, want use-after-free", c.ID, me.Kind)
			}
			detected = true
		} else if err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		if !detected {
			t.Errorf("%s: use-after-free not detected", c.ID)
		}
	}
}

func TestUAFGoodVariantsClean(t *testing.T) {
	for i, c := range juliet.UAFCases() {
		if i%7 != 0 {
			continue
		}
		bin, err := c.BuildGood()
		if err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		hard, _, err := redfat.Harden(bin, redfat.Defaults())
		if err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		v, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{
			Input: juliet.GoodInput(c), AbortOnError: true,
		})
		if err != nil || len(v.Errors) != 0 {
			t.Errorf("%s (good): false alarm: %v %v", c.ID, err, v.Errors)
		}
	}
}

func TestDoubleFreeDetection(t *testing.T) {
	for _, c := range juliet.DoubleFreeCases() {
		bin, err := c.Build()
		if err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		hard, _, err := redfat.Harden(bin, redfat.Defaults())
		if err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		v, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{
			Input: juliet.Trigger(c), AbortOnError: true,
		})
		detected := false
		for _, e := range v.Errors {
			if e.Kind == vm.ErrInvalidFree {
				detected = true
			}
		}
		if me, ok := err.(*vm.MemError); ok && me.Kind == vm.ErrInvalidFree {
			detected = true
		} else if err != nil && !ok {
			t.Fatalf("%s: %v", c.ID, err)
		}
		if !detected {
			t.Errorf("%s: double free not detected", c.ID)
		}

		// Good variant: clean.
		gbin, err := c.BuildGood()
		if err != nil {
			t.Fatal(err)
		}
		ghard, _, err := redfat.Harden(gbin, redfat.Defaults())
		if err != nil {
			t.Fatal(err)
		}
		gv, _, err := rtlib.RunHardened(ghard, rtlib.RunConfig{AbortOnError: true})
		if err != nil || len(gv.Errors) != 0 {
			t.Errorf("%s (good): false alarm: %v %v", c.ID, err, gv.Errors)
		}
	}
}
