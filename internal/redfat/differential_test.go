package redfat_test

import (
	"math/rand"
	"testing"

	"redfat/internal/asm"
	"redfat/internal/isa"
	"redfat/internal/juliet"
	"redfat/internal/redfat"
	"redfat/internal/relf"
	"redfat/internal/rtlib"
	"redfat/internal/vm"
)

// genProgram builds a random but well-behaved program: every memory
// access is in bounds by construction, control flow terminates, and the
// exit code is a deterministic data-only checksum. This underpins the
// central rewriting property: on error-free executions, the hardened
// binary is observationally identical to the original.
func genProgram(r *rand.Rand) (*relf.Binary, error) {
	b := asm.NewBuilder(asm.Options{FuncAlign: 16})
	b.Func("main")
	b.Push(isa.RBX)
	b.Push(isa.R12)
	b.Push(isa.R13)
	b.Push(isa.R14)

	// 1-3 heap buffers; sizes are powers of two so masking keeps
	// accesses in bounds.
	bufRegs := []isa.Reg{isa.RBX, isa.R12, isa.R13}
	nBufs := 1 + r.Intn(3)
	sizes := make([]int64, nBufs)
	for i := 0; i < nBufs; i++ {
		sizes[i] = 64 << r.Intn(5) // 64..1024 bytes
		b.MovRI(isa.RDI, sizes[i])
		b.CallImport("malloc")
		b.MovRR(bufRegs[i], isa.RAX)
		// Deterministic contents.
		b.MovRR(isa.RDI, bufRegs[i])
		b.MovRI(isa.RSI, int64(i))
		b.MovRI(isa.RDX, sizes[i])
		b.CallImport("memset")
	}

	// Main loop: RCX counts, R14 accumulates.
	iters := int64(16 + r.Intn(100))
	b.MovRI(isa.RCX, 0)
	b.MovRI(isa.R14, 0)
	b.Label("loop")

	nOps := 2 + r.Intn(8)
	for op := 0; op < nOps; op++ {
		buf := r.Intn(nBufs)
		reg := bufRegs[buf]
		elems := sizes[buf] / 8
		// RDX = in-bounds element index derived from the counter.
		b.MovRR(isa.RDX, isa.RCX)
		if r.Intn(2) == 0 {
			b.AluRI(isa.ADD, isa.RDX, int64(r.Intn(16)))
		}
		b.AluRI(isa.AND, isa.RDX, elems-1)
		m := asm.MemBID(reg, isa.RDX, 8, 0)
		switch r.Intn(6) {
		case 0:
			b.StoreM(m, isa.RCX, 8)
		case 1:
			b.AluRM(isa.ADD, isa.R14, m, 8)
		case 2:
			b.AluMR(isa.ADD, m, isa.RCX, 8)
		case 3: // struct-style multi-field stores (batch/merge food)
			base := asm.MemBID(reg, isa.RegNone, 1, int32(8*r.Intn(4)))
			b.StoreMI(base, int64(r.Intn(100)), 8)
			base.Disp += 8
			b.StoreMI(base, int64(r.Intn(100)), 8)
		case 4: // stack spill pair (elimination food)
			b.Store(isa.RSP, -32, isa.RCX, 8)
			b.Load(isa.RCX, isa.RSP, -32, 8)
		case 5: // sub-width access
			b.StoreM(asm.MemBID(reg, isa.RDX, 1, 0), isa.RCX, 1)
			b.Emit(isa.Inst{Op: isa.MOVZX, Form: isa.FRM, Reg: isa.RSI, Size: 1,
				Mem: asm.MemBID(reg, isa.RDX, 1, 0)})
			b.AluRR(isa.ADD, isa.R14, isa.RSI)
		}
		// Occasional in-loop branch (control-flow variety).
		if r.Intn(4) == 0 {
			skip := b0Label(r)
			b.Emit(isa.Inst{Op: isa.TEST, Form: isa.FRR, Reg: isa.RCX, Reg2: isa.RCX, Size: 8})
			b.Jcc(isa.JS, skip) // never taken (counter ≥ 0); still a block split
			b.AluRI(isa.ADD, isa.R14, 1)
			b.Label(skip)
		}
	}

	b.AluRI(isa.ADD, isa.RCX, 1)
	b.AluRI(isa.CMP, isa.RCX, iters)
	b.Jcc(isa.JL, "loop")

	for i := 0; i < nBufs; i++ {
		b.MovRR(isa.RDI, bufRegs[i])
		b.CallImport("free")
	}
	b.MovRR(isa.RAX, isa.R14)
	b.Pop(isa.R14)
	b.Pop(isa.R13)
	b.Pop(isa.R12)
	b.Pop(isa.RBX)
	b.Ret()
	return b.Build()
}

var labelCounter int

func b0Label(r *rand.Rand) string {
	labelCounter++
	return "rnd_" + string(rune('a'+labelCounter%26)) + string(rune('0'+labelCounter%10)) +
		string(rune('a'+(labelCounter/10)%26)) + string(rune('0'+(labelCounter/260)%10))
}

// TestDifferentialRandomPrograms: for random well-behaved programs, every
// instrumentation configuration preserves behaviour exactly and reports
// no errors.
func TestDifferentialRandomPrograms(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	configs := []redfat.Options{
		redfat.Defaults(),
		{LowFat: true, CheckReads: true, SizeCheck: true}, // unoptimized
		{LowFat: false, CheckReads: true, SizeCheck: true, Elim: true, Batch: true, Merge: true},
		{LowFat: true, SizeCheck: true, Elim: true, Batch: true, Merge: true}, // writes only
	}
	for trial := 0; trial < 25; trial++ {
		bin, err := genProgram(r)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		base, err := rtlib.RunBaseline(bin, rtlib.RunConfig{})
		if err != nil {
			t.Fatalf("trial %d baseline: %v", trial, err)
		}
		for ci, opt := range configs {
			hard, _, err := redfat.Harden(bin, opt)
			if err != nil {
				t.Fatalf("trial %d config %d: %v", trial, ci, err)
			}
			v, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{AbortOnError: true})
			if err != nil {
				t.Fatalf("trial %d config %d run: %v", trial, ci, err)
			}
			if v.ExitCode != base.ExitCode {
				t.Fatalf("trial %d config %d: checksum %#x != baseline %#x",
					trial, ci, v.ExitCode, base.ExitCode)
			}
			if len(v.Errors) != 0 {
				t.Fatalf("trial %d config %d: spurious errors %v", trial, ci, v.Errors)
			}
		}
	}
}

// TestDifferentialRandomizedAllocator: random programs also behave
// identically under placement randomization.
func TestDifferentialRandomizedAllocator(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 10; trial++ {
		bin, err := genProgram(r)
		if err != nil {
			t.Fatal(err)
		}
		hard, _, err := redfat.Harden(bin, redfat.Defaults())
		if err != nil {
			t.Fatal(err)
		}
		plain, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{AbortOnError: true})
		if err != nil {
			t.Fatal(err)
		}
		rnd, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{AbortOnError: true, RandomizeHeap: true})
		if err != nil {
			t.Fatal(err)
		}
		if plain.ExitCode != rnd.ExitCode {
			t.Fatalf("trial %d: randomization changed checksum: %#x vs %#x",
				trial, plain.ExitCode, rnd.ExitCode)
		}
	}
}

// detection is the observable outcome of running one hardened bad-variant
// case: whether an error was reported and, if so, its kind and location.
type detection struct {
	caught   bool
	kind     vm.MemErrorKind
	pc       uint64
	exitCode uint64
}

// runDetect hardens a case under opt and runs its trigger input,
// mirroring the detection logic of the Juliet suite: an error is a
// detection whether it surfaced as a recorded check violation or as a
// VM-level fault under Abort.
func runDetect(t *testing.T, c *juliet.Case, opt redfat.Options) detection {
	t.Helper()
	bin, err := c.Build()
	if err != nil {
		t.Fatalf("%s: %v", c.ID, err)
	}
	hard, _, err := redfat.Harden(bin, opt)
	if err != nil {
		t.Fatalf("%s: harden (%+v): %v", c.ID, opt, err)
	}
	v, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{
		Input: juliet.Trigger(c), AbortOnError: true,
	})
	var d detection
	d.exitCode = v.ExitCode
	if len(v.Errors) > 0 {
		d.caught = true
		d.kind = v.Errors[0].Kind
		d.pc = v.Errors[0].PC
	}
	if me, ok := err.(*vm.MemError); ok {
		if !d.caught {
			d.caught, d.kind, d.pc = true, me.Kind, me.PC
		}
	} else if err != nil {
		t.Fatalf("%s: hardened run (%+v): %v", c.ID, opt, err)
	}
	return d
}

// TestDifferentialElimKnobMatrix: dominator-based check elimination and
// the liveness-scope knob are pure optimizations — across the whole
// {ElimDom} × {LocalLiveness} matrix, every Juliet and CVE case must
// produce the identical detection verdict, error kind, faulting PC, and
// exit code. An elimination pass that drops a security-relevant check
// shows up here as a knob-dependent detection.
func TestDifferentialElimKnobMatrix(t *testing.T) {
	combos := []struct {
		name      string
		elimDom   bool
		localLive bool
	}{
		{"elimdom+global", true, false},
		{"elimdom+local", true, true},
		{"noelimdom+global", false, false},
		{"noelimdom+local", false, true},
	}

	var cases []*juliet.Case
	cases = append(cases, juliet.CVECases()...)
	js := juliet.JulietCases()
	stride := 17
	if testing.Short() {
		stride = 97
	}
	for i := 0; i < len(js); i += stride {
		cases = append(cases, js[i])
	}

	for _, c := range cases {
		var ref detection
		for ci, combo := range combos {
			opt := redfat.Defaults()
			opt.ElimDom = combo.elimDom
			opt.LocalLiveness = combo.localLive
			d := runDetect(t, c, opt)
			if ci == 0 {
				ref = d
				if !d.caught {
					t.Errorf("%s: bad variant not detected under %s", c.ID, combo.name)
				}
				continue
			}
			if d != ref {
				t.Errorf("%s: detection differs under %s: got %+v, want %+v",
					c.ID, combo.name, d, ref)
			}
		}
	}
}
