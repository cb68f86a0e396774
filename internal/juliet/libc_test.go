package juliet_test

import (
	"strings"
	"testing"

	"redfat/internal/juliet"
	"redfat/internal/redfat"
	"redfat/internal/rtlib"
)

func TestLibcDetection(t *testing.T) {
	// OOB through interposed libc routines: the faulting bytes move in
	// the host-side binding, invisible to per-access instrumentation, so
	// a RedFat hit proves the intrinsic span checks. Memcheck wraps the
	// mem* entry points (the contiguous overflow crosses the redzone and
	// is caught) but not the string routines — strcpy is RedFat-only.
	for _, c := range juliet.LibcCases() {
		rf, mc := runCase(t, c)
		if !rf {
			t.Errorf("%s: span check missed the libc overflow", c.ID)
		}
		wantMC := strings.HasPrefix(c.ID, "LIBC-mem")
		if mc != wantMC {
			t.Errorf("%s: Memcheck detected=%v, want %v", c.ID, mc, wantMC)
		}
	}
}

func TestLibcGoodVariantsClean(t *testing.T) {
	for _, c := range juliet.LibcCases() {
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
