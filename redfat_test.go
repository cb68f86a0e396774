package redfat_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"redfat"
	"redfat/internal/relf"
)

const vulnerableSrc = `
# A toy vulnerable server: reads an index, writes to a heap array.
.func main
    mov $40, %rdi
    call @malloc
    mov %rax, %rbx
    call @rf_input            ; attacker-controlled index
    mov $7, %rcx
    mov %rcx, (%rbx,%rax,8)   ; array[i] = 7
    mov $0, %rax
    ret
`

func TestPublicAPIEndToEnd(t *testing.T) {
	bin, err := redfat.Assemble(vulnerableSrc)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline run, benign input.
	res, err := redfat.Run(bin, redfat.RunOptions{Input: []uint64{2}})
	if err != nil || res.ExitCode != 0 {
		t.Fatalf("baseline: %v %+v", err, res)
	}

	hard, rep, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checks == 0 {
		t.Fatal("no checks")
	}

	// Benign input passes, attack is caught.
	res, err = redfat.Run(hard, redfat.RunOptions{
		Input: []uint64{2}, Hardened: true, AbortOnError: true,
	})
	if err != nil || len(res.Errors) != 0 {
		t.Fatalf("benign hardened run: %v %v", err, res.Errors)
	}
	_, err = redfat.Run(hard, redfat.RunOptions{
		Input: []uint64{5}, Hardened: true, AbortOnError: true,
	})
	if _, ok := err.(*redfat.MemError); !ok {
		t.Fatalf("attack not detected: %v", err)
	}
}

func TestBinaryFileRoundTrip(t *testing.T) {
	bin, err := redfat.Assemble(vulnerableSrc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "prog.relf")
	if err := redfat.SaveBinary(bin, path); err != nil {
		t.Fatal(err)
	}
	got, err := redfat.LoadBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Entry != bin.Entry {
		t.Errorf("entry mismatch after round trip")
	}
	if _, err := redfat.LoadBinary(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("loading missing file succeeded")
	}
}

// loadWithSection saves bin plus a metadata section name=data to a file
// and loads it back, as a user-supplied binary would arrive.
func loadWithSection(t *testing.T, bin *redfat.Binary, name string, data []byte) *redfat.Binary {
	t.Helper()
	bin = bin.Clone()
	if s := bin.Section(name); s != nil {
		s.Data = data
	} else {
		bin.AddSection(&relf.Section{Name: name, Kind: relf.SecMeta, Data: data})
	}
	path := filepath.Join(t.TempDir(), "crafted.relf")
	if err := redfat.SaveBinary(bin, path); err != nil {
		t.Fatal(err)
	}
	got, err := redfat.LoadBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestRunRejectsCorruptPatchTable: a loaded binary whose .rf.patch
// section claims 0x3000000000000000 entries in 8 bytes fails to run with
// an error. The decoder's bounds check 8+16*n used to wrap to 8, so
// module load indexed past the section and panicked.
func TestRunRejectsCorruptPatchTable(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panic on a corrupt %s section: %v", relf.PatchTableSection, r)
		}
	}()
	bin, err := redfat.Assemble(vulnerableSrc)
	if err != nil {
		t.Fatal(err)
	}
	hard, _, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	crafted := []byte{0, 0, 0, 0, 0, 0, 0, 0x30}
	for _, c := range []struct {
		bin *redfat.Binary
		opt redfat.RunOptions
	}{
		{bin, redfat.RunOptions{Input: []uint64{2}}},
		{hard, redfat.RunOptions{Input: []uint64{2}, Hardened: true}},
	} {
		got := loadWithSection(t, c.bin, relf.PatchTableSection, crafted)
		if _, err := redfat.Run(got, c.opt); err == nil {
			t.Errorf("Run(Hardened=%v) accepted a corrupt %s section", c.opt.Hardened, relf.PatchTableSection)
		}
	}
}

// TestCorruptJumpTablesIgnored: a .rf.jt section whose record count runs
// past its data is a decode error, which hardening treats as "no declared
// tables": the binary still hardens and runs to the same exit, without a
// panic.
func TestCorruptJumpTablesIgnored(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panic on a corrupt %s section: %v", relf.JumpTableSection, r)
		}
	}()
	bin, err := redfat.Assemble(vulnerableSrc)
	if err != nil {
		t.Fatal(err)
	}
	got := loadWithSection(t, bin, relf.JumpTableSection, []byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	hard, _, err := redfat.Harden(got, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	res, err := redfat.Run(hard, redfat.RunOptions{Input: []uint64{2}, Hardened: true})
	if err != nil || res.ExitCode != 0 || len(res.Errors) != 0 {
		t.Fatalf("hardened run: %v %+v", err, res)
	}
}

func TestProfileAndHardenAPI(t *testing.T) {
	src := `
.func main
    mov $128, %rdi
    call @malloc
    mov %rax, %rbx
    sub $64, %rbx             ; anti-idiom base pointer
    call @rf_input
    mov $1, %rcx
    movb %rcx, (%rbx,%rax,1)  ; (array-64)[i]
    mov $0, %rax
    ret
`
	bin, err := redfat.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	hard, allow, _, err := redfat.ProfileAndHarden(bin,
		[][]uint64{{64}, {100}}, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	res, err := redfat.Run(hard, redfat.RunOptions{
		Input: []uint64{70}, Hardened: true, AbortOnError: true,
	})
	if err != nil || len(res.Errors) != 0 {
		t.Fatalf("false positive after profiling: %v %v", err, res.Errors)
	}
	// Allow-list file round trip.
	path := filepath.Join(t.TempDir(), "allow.lst")
	if err := redfat.SaveAllowList(allow, path); err != nil {
		t.Fatal(err)
	}
	got, err := redfat.LoadAllowList(path)
	if err != nil || len(got) != len(allow) {
		t.Fatalf("allow-list round trip: %v (%d vs %d)", err, len(got), len(allow))
	}
}

func TestMemcheckAPI(t *testing.T) {
	bin, err := redfat.Assemble(vulnerableSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := redfat.Run(bin, redfat.RunOptions{Input: []uint64{5}, Memcheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) == 0 {
		t.Error("Memcheck missed the incremental overflow into the redzone")
	}
	if _, err := redfat.Run(bin, redfat.RunOptions{Memcheck: true, Hardened: true}); err == nil {
		t.Error("Memcheck+Hardened accepted")
	}
}

func TestRunLinkedAPI(t *testing.T) {
	lib, err := redfat.Assemble(`
.func lib_get
    mov (%rdi), %rax
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	lib.Rebase(0x5000000 - 0x400000)
	main, err := redfat.Assemble(`
.func main
    mov $32, %rdi
    call @malloc
    mov %rax, %rbx
    mov $55, %rcx
    mov %rcx, (%rbx)
    mov %rbx, %rdi
    call @lib_get
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	hardLib, _, err := redfat.Harden(lib, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	hardMain, _, err := redfat.Harden(main, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	res, err := redfat.RunLinked(hardMain, []*redfat.Binary{hardLib},
		redfat.RunOptions{Hardened: true, AbortOnError: true})
	if err != nil || res.ExitCode != 55 {
		t.Fatalf("linked run: exit=%d err=%v", res.ExitCode, err)
	}
	if res.Coverage == 0 {
		t.Error("linked run reported zero coverage")
	}
	if _, err := redfat.RunLinked(hardMain, nil, redfat.RunOptions{Memcheck: true}); err == nil {
		t.Error("Memcheck linked run accepted")
	}
}

// TestRunLinkedMatchesRun pins the one result builder: a linked run with
// no libraries reports exactly what Run reports for the same hardened
// binary, per-site check statistics and coverage included.
func TestRunLinkedMatchesRun(t *testing.T) {
	bin, err := redfat.Assemble(vulnerableSrc)
	if err != nil {
		t.Fatal(err)
	}
	hard, _, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, input := range []uint64{2, 40} { // benign, then an overflow
		opt := redfat.RunOptions{Input: []uint64{input}, Hardened: true}
		want, err := redfat.Run(hard, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := redfat.RunLinked(hard, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Checks) == 0 {
			t.Fatalf("input %d: Run reported no check statistics", input)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("input %d: RunLinked result differs from Run:\n got %+v\nwant %+v", input, got, want)
		}
	}
}
