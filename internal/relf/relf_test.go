package relf

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func sampleBinary() *Binary {
	b := &Binary{
		Entry: DefaultTextBase,
	}
	b.AddSection(&Section{
		Name: ".text", Kind: SecText, Addr: DefaultTextBase,
		Size: 64, Data: []byte{1, 2, 3, 4}, Exec: true,
	})
	b.AddSection(&Section{
		Name: ".data", Kind: SecData, Addr: DefaultDataBase,
		Size: 128, Data: []byte("hello"), Write: true,
	})
	b.AddSection(&Section{
		Name: ".bss", Kind: SecBSS, Addr: DefaultDataBase + 0x1000,
		Size: 4096, Write: true,
	})
	b.Symbols = []Symbol{
		{Name: "main", Addr: DefaultTextBase, Size: 32, Func: true},
		{Name: "buf", Addr: DefaultDataBase, Size: 5},
	}
	b.Imports = []string{"malloc", "free", "print_i64"}
	return b
}

func TestMarshalRoundTrip(t *testing.T) {
	b := sampleBinary()
	data, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Entry != b.Entry || got.PIC != b.PIC || got.Stripped != b.Stripped {
		t.Errorf("header mismatch: %+v vs %+v", got, b)
	}
	if len(got.Sections) != len(b.Sections) {
		t.Fatalf("section count %d != %d", len(got.Sections), len(b.Sections))
	}
	for i, s := range b.Sections {
		g := got.Sections[i]
		if g.Name != s.Name || g.Kind != s.Kind || g.Addr != s.Addr ||
			g.Size != s.Size || g.Write != s.Write || g.Exec != s.Exec {
			t.Errorf("section %d mismatch: %+v vs %+v", i, g, s)
		}
		if string(g.Data) != string(s.Data) {
			t.Errorf("section %d data mismatch", i)
		}
	}
	if len(got.Symbols) != 2 || got.Symbols[0].Name != "main" || !got.Symbols[0].Func {
		t.Errorf("symbols mismatch: %+v", got.Symbols)
	}
	if len(got.Imports) != 3 || got.Imports[2] != "print_i64" {
		t.Errorf("imports mismatch: %v", got.Imports)
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	b := sampleBinary()
	data, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte anywhere; the checksum must catch it.
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		cp := append([]byte(nil), data...)
		pos := r.Intn(len(cp))
		cp[pos] ^= 0xA5
		if _, err := Unmarshal(cp); err == nil {
			t.Fatalf("corruption at byte %d not detected", pos)
		}
	}
	if _, err := Unmarshal(data[:8]); err == nil {
		t.Error("truncated image accepted")
	}
	if _, err := Unmarshal(nil); err == nil {
		t.Error("empty image accepted")
	}
}

func TestSectionLookup(t *testing.T) {
	b := sampleBinary()
	if s := b.Section(".text"); s == nil || s.Kind != SecText {
		t.Fatal("Section(.text) failed")
	}
	if s := b.Text(); s == nil || s.Name != ".text" {
		t.Fatal("Text() failed")
	}
	if s := b.SectionAt(DefaultTextBase + 10); s == nil || s.Name != ".text" {
		t.Fatal("SectionAt inside .text failed")
	}
	if s := b.SectionAt(DefaultTextBase + 64); s != nil {
		t.Fatalf("SectionAt(end) = %q, want nil", s.Name)
	}
	if s := b.SectionAt(0xdeadbeef); s != nil {
		t.Fatal("SectionAt(unmapped) should be nil")
	}
}

func TestSymbols(t *testing.T) {
	b := sampleBinary()
	addr, ok := b.Lookup("main")
	if !ok || addr != DefaultTextBase {
		t.Fatalf("Lookup(main) = %#x, %v", addr, ok)
	}
	sym, ok := b.SymbolAt(DefaultTextBase + 5)
	if !ok || sym.Name != "main" {
		t.Fatalf("SymbolAt = %+v, %v", sym, ok)
	}
	b.Strip()
	if !b.Stripped || len(b.Symbols) != 0 {
		t.Fatal("Strip() did not remove symbols")
	}
	if _, ok := b.Lookup("main"); ok {
		t.Fatal("Lookup succeeded on stripped binary")
	}
}

func TestRebase(t *testing.T) {
	b := sampleBinary()
	b.PIC = true
	const delta = 0x5555_0000_0000
	text := b.Text().Addr
	entry := b.Entry
	b.Rebase(delta)
	if b.Entry != entry+delta {
		t.Errorf("entry not rebased: %#x", b.Entry)
	}
	if b.Text().Addr != text+delta {
		t.Errorf("text not rebased: %#x", b.Text().Addr)
	}
	if b.Symbols[0].Addr != DefaultTextBase+delta {
		t.Errorf("symbol not rebased: %#x", b.Symbols[0].Addr)
	}
}

func TestImportIndex(t *testing.T) {
	b := &Binary{}
	i := b.ImportIndex("malloc")
	j := b.ImportIndex("free")
	k := b.ImportIndex("malloc")
	if i != k {
		t.Errorf("duplicate import got new index: %d vs %d", i, k)
	}
	if i == j {
		t.Errorf("distinct imports share index %d", i)
	}
	if len(b.Imports) != 2 {
		t.Errorf("import table = %v", b.Imports)
	}
}

func TestCheckOverlaps(t *testing.T) {
	b := sampleBinary()
	if err := b.CheckOverlaps(); err != nil {
		t.Fatalf("valid layout reported overlap: %v", err)
	}
	b.AddSection(&Section{Name: ".evil", Addr: DefaultTextBase + 32, Size: 64})
	if err := b.CheckOverlaps(); err == nil {
		t.Fatal("overlap not detected")
	}
}

func TestClone(t *testing.T) {
	b := sampleBinary()
	c := b.Clone()
	c.Sections[0].Data[0] = 0xFF
	c.Symbols[0].Name = "changed"
	c.Imports[0] = "changed"
	if b.Sections[0].Data[0] == 0xFF {
		t.Error("clone shares section data")
	}
	if b.Symbols[0].Name == "changed" {
		t.Error("clone shares symbols")
	}
	if b.Imports[0] == "changed" {
		t.Error("clone shares imports")
	}
}

// TestQuickMarshalRoundTrip: marshal/unmarshal is the identity on random
// well-formed binaries.
func TestQuickMarshalRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func() bool {
		b := &Binary{
			PIC:      r.Intn(2) == 0,
			Stripped: r.Intn(2) == 0,
			Entry:    r.Uint64(),
		}
		addr := uint64(0x1000)
		for i := 0; i < r.Intn(6); i++ {
			data := make([]byte, r.Intn(256))
			r.Read(data)
			size := uint64(len(data)) + uint64(r.Intn(64))
			b.AddSection(&Section{
				Name: strings.Repeat("s", i+1),
				Kind: SectionKind(r.Intn(6)),
				Addr: addr, Size: size, Data: data,
				Write: r.Intn(2) == 0, Exec: r.Intn(2) == 0,
			})
			addr += size + uint64(r.Intn(4096))
		}
		if !b.Stripped {
			for i := 0; i < r.Intn(4); i++ {
				b.Symbols = append(b.Symbols, Symbol{
					Name: strings.Repeat("f", i+1), Addr: r.Uint64(),
					Size: uint64(r.Intn(100)), Func: r.Intn(2) == 0,
				})
			}
		}
		for i := 0; i < r.Intn(4); i++ {
			b.Imports = append(b.Imports, strings.Repeat("i", i+1))
		}

		data, err := b.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Logf("unmarshal: %v", err)
			return false
		}
		data2, err := got.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return string(data) == string(data2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestWrappedSectionRejected: a section whose Addr+Size runs past 2^64
// is rejected with a *SectionRangeError by both Unmarshal and
// CheckOverlaps. Accepting it used to make loaders iterate ~2^52 page
// indexes.
func TestWrappedSectionRejected(t *testing.T) {
	for _, s := range []*Section{
		{Name: ".bss", Kind: SecBSS, Addr: 0xFFFF_FFFF_FFFF_F000, Size: 0x2000, Write: true},
		{Name: ".bss", Kind: SecBSS, Addr: 0xFFFF_FFFF_FFFF_F000, Size: 0x1000, Write: true},
		{Name: ".data", Kind: SecData, Addr: 0x1000, Size: ^uint64(0), Data: []byte{1}},
	} {
		b := sampleBinary()
		b.AddSection(s)
		var re *SectionRangeError
		if err := b.CheckOverlaps(); !errors.As(err, &re) {
			t.Errorf("CheckOverlaps(%#x+%#x) = %v, want *SectionRangeError", s.Addr, s.Size, err)
		}
		data, err := b.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Unmarshal(data); !errors.As(err, &re) {
			t.Errorf("Unmarshal(%#x+%#x) = %v, want *SectionRangeError", s.Addr, s.Size, err)
		} else if re.Name != s.Name || re.Addr != s.Addr || re.Size != s.Size {
			t.Errorf("error fields = %+v", re)
		}
	}
	// A section ending exactly one byte short of 2^64 still fits.
	b := sampleBinary()
	b.AddSection(&Section{Name: ".top", Kind: SecBSS, Addr: 0xFFFF_FFFF_FFFF_F000, Size: 0xFFF, Write: true})
	if err := b.CheckOverlaps(); err != nil {
		t.Errorf("top-of-space section rejected: %v", err)
	}
}
