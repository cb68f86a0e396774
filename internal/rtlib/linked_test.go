package rtlib_test

import (
	"testing"

	"redfat/internal/asm"
	"redfat/internal/isa"
	"redfat/internal/redfat"
	"redfat/internal/relf"
	"redfat/internal/rtlib"
	"redfat/internal/vm"
)

// libBases places the shared object away from the executable's addresses
// (the rewriter's trampoline region included).
var libOpts = asm.Options{TextBase: 0x5000000, DataBase: 0x5200000}

// buildLib builds libvuln.so: an exported store_at(buf=rdi, idx=rsi)
// with no bounds check, plus a benign exported helper.
func buildLib(t *testing.T) *relf.Binary {
	t.Helper()
	b := asm.NewBuilder(libOpts)
	b.Func("lib_store_at")
	b.MovRI(isa.RCX, 0x41)
	b.StoreM(asm.MemBID(isa.RDI, isa.RSI, 8, 0), isa.RCX, 8)
	b.MovRI(isa.RAX, 0)
	b.Ret()
	b.Func("lib_double")
	b.MovRR(isa.RAX, isa.RDI)
	b.AluRR(isa.ADD, isa.RAX, isa.RDI)
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// buildMain builds the executable: allocates a 40-byte array and calls
// lib_store_at(array, input).
func buildMain(t *testing.T) *relf.Binary {
	t.Helper()
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.MovRI(isa.RDI, 40)
	b.CallImport("malloc")
	b.MovRR(isa.RBX, isa.RAX)
	b.MovRI(isa.RDI, 40)
	b.CallImport("malloc") // adjacent victim
	b.CallImport("rf_input")
	b.MovRR(isa.RSI, isa.RAX)
	b.MovRR(isa.RDI, isa.RBX)
	b.CallImport("lib_store_at")
	b.MovRI(isa.RDI, 21)
	b.CallImport("lib_double")
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

func TestCrossModuleCalls(t *testing.T) {
	lib := buildLib(t)
	main := buildMain(t)
	v, rts, err := rtlib.RunLinked(main, []*relf.Binary{lib},
		rtlib.RunConfig{Input: []uint64{2}})
	if err != nil {
		t.Fatal(err)
	}
	if v.ExitCode != 42 {
		t.Errorf("exit = %d, want 42 (lib_double(21))", v.ExitCode)
	}
	if len(rts) != 0 {
		t.Errorf("uninstrumented modules produced %d runtimes", len(rts))
	}
}

func TestUninstrumentedLibraryUnprotected(t *testing.T) {
	// Paper §7.4: if the main program is instrumented but a dependency
	// is not, only the former is protected. The overflow happens inside
	// the library, so it goes undetected.
	lib := buildLib(t)
	main := buildMain(t)
	hardMain, _, err := redfat.Harden(main, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	attackIdx := uint64(8) // next slot's payload: invisible to redzones too
	v, rts, err := rtlib.RunLinked(hardMain, []*relf.Binary{lib},
		rtlib.RunConfig{Input: []uint64{attackIdx}, AbortOnError: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(v.Errors) != 0 {
		t.Errorf("error detected in uninstrumented library code: %v", v.Errors)
	}
	if len(rts) != 1 {
		t.Errorf("runtimes = %d, want 1 (main only)", len(rts))
	}
}

func TestSeparatelyInstrumentedLibraryProtected(t *testing.T) {
	// Instrumenting the library separately (the paper's recommended
	// workflow) catches the overflow inside it.
	lib := buildLib(t)
	main := buildMain(t)
	hardLib, libRep, err := redfat.Harden(lib, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if libRep.Checks == 0 {
		t.Fatal("library got no checks")
	}
	hardMain, _, err := redfat.Harden(main, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}

	// Benign index: clean run, identical result.
	v, rts, err := rtlib.RunLinked(hardMain, []*relf.Binary{hardLib},
		rtlib.RunConfig{Input: []uint64{2}, AbortOnError: true})
	if err != nil || v.ExitCode != 42 {
		t.Fatalf("benign linked run: exit=%d err=%v", v.ExitCode, err)
	}
	if len(rts) != 2 {
		t.Fatalf("runtimes = %d, want 2", len(rts))
	}

	// Attack through the library: now detected.
	_, _, err = rtlib.RunLinked(hardMain, []*relf.Binary{hardLib},
		rtlib.RunConfig{Input: []uint64{8}, AbortOnError: true})
	me, ok := err.(*vm.MemError)
	if !ok {
		t.Fatalf("library overflow not detected: %v", err)
	}
	if me.Kind != vm.ErrOOBWrite {
		t.Errorf("kind = %v", me.Kind)
	}
}

func TestUnresolvedCrossModuleImport(t *testing.T) {
	main := buildMain(t)
	_, _, err := rtlib.RunLinked(main, nil, rtlib.RunConfig{})
	if err == nil {
		t.Fatal("missing library import resolved from nowhere")
	}
}

func TestLibraryCallingLibc(t *testing.T) {
	// A library that itself allocates: its malloc import binds to the
	// process-wide (RedFat) allocator.
	b := asm.NewBuilder(libOpts)
	b.Func("lib_alloc_and_fill")
	b.Push(isa.RBX)
	b.MovRI(isa.RDI, 64)
	b.CallImport("malloc")
	b.MovRR(isa.RBX, isa.RAX)
	b.StoreI(isa.RBX, 0, 123, 8)
	b.Load(isa.RAX, isa.RBX, 0, 8)
	b.Pop(isa.RBX)
	b.Ret()
	lib, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	mb := asm.NewBuilder(asm.Options{})
	mb.Func("main")
	mb.CallImport("lib_alloc_and_fill")
	mb.Ret()
	main, err := mb.Build()
	if err != nil {
		t.Fatal(err)
	}
	hardLib, _, err := redfat.Harden(lib, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := rtlib.RunLinked(main, []*relf.Binary{hardLib},
		rtlib.RunConfig{AbortOnError: true})
	if err != nil || v.ExitCode != 123 {
		t.Fatalf("exit=%d err=%v", v.ExitCode, err)
	}
}
