package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMapLoadStore(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x2000, PermRW)
	for _, width := range []uint16{1, 2, 4, 8} {
		val := uint64(0x1122334455667788) & (1<<(8*width) - 1)
		if width == 8 {
			val = 0x1122334455667788
		}
		if err := m.Store(0x1800, width, val); err != nil {
			t.Fatalf("Store width %d: %v", width, err)
		}
		got, err := m.Load(0x1800, width)
		if err != nil {
			t.Fatalf("Load width %d: %v", width, err)
		}
		if got != val {
			t.Errorf("width %d: got %#x want %#x", width, got, val)
		}
	}
}

func TestUnmappedFaults(t *testing.T) {
	m := New()
	if _, err := m.Load(0x5000, 8); err == nil {
		t.Error("load of unmapped memory succeeded")
	}
	if err := m.Store(0x5000, 8, 1); err == nil {
		t.Error("store to unmapped memory succeeded")
	}
	m.Map(0x5000, 0x1000, PermRead)
	if _, err := m.Load(0x5000, 8); err != nil {
		t.Errorf("read from read-only page: %v", err)
	}
	err := m.Store(0x5000, 8, 1)
	if err == nil {
		t.Error("store to read-only page succeeded")
	}
	if f, ok := err.(*Fault); !ok || !f.Write || f.Addr != 0x5000 {
		t.Errorf("fault = %v", err)
	}
}

func TestCrossPageAccess(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x2000, PermRW)
	addr := uint64(0x2000 - 3) // straddles page boundary
	want := uint64(0xDEADBEEFCAFEBABE)
	if err := m.Store(addr, 8, want); err != nil {
		t.Fatal(err)
	}
	got, err := m.Load(addr, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("cross-page load = %#x, want %#x", got, want)
	}
	// Partial mapping: second page unmapped must fault.
	m2 := New()
	m2.Map(0x1000, 0x1000, PermRW)
	if err := m2.Store(0x2000-3, 8, 1); err == nil {
		t.Error("cross-page store into unmapped page succeeded")
	}
}

func TestUnmapProtect(t *testing.T) {
	m := New()
	m.Map(0x10000, 0x3000, PermRW)
	if got := m.MappedPages(); got != 3 {
		t.Errorf("MappedPages = %d, want 3", got)
	}
	m.Unmap(0x11000, 0x1000)
	if m.Mapped(0x11000) {
		t.Error("page still mapped after Unmap")
	}
	if !m.Mapped(0x10000) || !m.Mapped(0x12000) {
		t.Error("Unmap removed neighbouring pages")
	}
	m.Protect(0x10000, 0x1000, PermRead)
	if m.PermAt(0x10000) != PermRead {
		t.Errorf("PermAt = %v", m.PermAt(0x10000))
	}
	if err := m.Store(0x10000, 1, 0); err == nil {
		t.Error("store after Protect(read-only) succeeded")
	}
}

func TestReadWriteAt(t *testing.T) {
	m := New()
	m.Map(0x8000, 0x3000, PermRW)
	src := make([]byte, 5000)
	for i := range src {
		src[i] = byte(i * 7)
	}
	if err := m.WriteAt(0x8100, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(src))
	if err := m.ReadAt(0x8100, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if src[i] != dst[i] {
			t.Fatalf("byte %d: %#x != %#x", i, dst[i], src[i])
		}
	}
}

func TestFetch(t *testing.T) {
	m := New()
	m.Map(0x400000, 0x1000, PermRX)
	m.Map(0x401000, 0x1000, PermRW) // next page not executable
	code := []byte{0x90, 0x91, 0x92}
	m.Protect(0x400000, 0x1000, PermRW)
	if err := m.WriteAt(0x400ffd, code); err != nil {
		t.Fatal(err)
	}
	m.Protect(0x400000, 0x1000, PermRX)

	buf := make([]byte, 16)
	n := m.Fetch(0x400ffd, buf)
	if n != 3 {
		t.Errorf("Fetch across NX boundary = %d bytes, want 3", n)
	}
	if buf[0] != 0x90 || buf[2] != 0x92 {
		t.Errorf("Fetch bytes = % x", buf[:n])
	}
	if n := m.Fetch(0x401000, buf); n != 0 {
		t.Errorf("Fetch from NX page = %d, want 0", n)
	}
	if n := m.Fetch(0x999000, buf); n != 0 {
		t.Errorf("Fetch from unmapped = %d, want 0", n)
	}
}

func TestMemsetMemcpy(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x4000, PermRW)
	if err := m.Memset(0x1100, 0xAB, 1000); err != nil {
		t.Fatal(err)
	}
	v, _ := m.Load(0x1100+999, 1)
	if v != 0xAB {
		t.Errorf("Memset tail = %#x", v)
	}
	v, _ = m.Load(0x1100+1000, 1)
	if v != 0 {
		t.Errorf("Memset overran: %#x", v)
	}
	if err := m.Memcpy(0x3000, 0x1100, 1000); err != nil {
		t.Fatal(err)
	}
	v, _ = m.Load(0x3000+500, 1)
	if v != 0xAB {
		t.Errorf("Memcpy = %#x", v)
	}
}

func TestReadCString(t *testing.T) {
	m := New()
	m.Map(0x1000, 0x1000, PermRW)
	m.WriteAt(0x1000, []byte("hello\x00world"))
	s, err := m.ReadCString(0x1000, 64)
	if err != nil || s != "hello" {
		t.Errorf("ReadCString = %q, %v", s, err)
	}
	m.Memset(0x1000, 'x', 0x1000)
	if _, err := m.ReadCString(0x1000, 16); err == nil {
		t.Error("unterminated string not detected")
	}
}

// Property: for random mapped offsets, a Store followed by a Load of the
// same width returns the stored value truncated to the width, and bytes
// outside the store are untouched.
func TestQuickStoreLoad(t *testing.T) {
	m := New()
	const base, size = 0x100000, 0x10000
	m.Map(base, size, PermRW)
	r := rand.New(rand.NewSource(11))
	widths := []uint16{1, 2, 4, 8}
	f := func() bool {
		addr := base + uint64(r.Intn(size-8))
		w := widths[r.Intn(len(widths))]
		val := r.Uint64()
		// Sentinel bytes around the store.
		m.Store(addr-1, 1, 0x5A)
		m.Store(addr+uint64(w), 1, 0xA5)
		if err := m.Store(addr, w, val); err != nil {
			t.Fatal(err)
		}
		got, err := m.Load(addr, w)
		if err != nil {
			t.Fatal(err)
		}
		mask := ^uint64(0)
		if w < 8 {
			mask = 1<<(8*w) - 1
		}
		if got != val&mask {
			return false
		}
		lo, _ := m.Load(addr-1, 1)
		hi, _ := m.Load(addr+uint64(w), 1)
		return lo == 0x5A && hi == 0xA5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestPermString(t *testing.T) {
	if got := (PermRead | PermExec).String(); got != "r-x" {
		t.Errorf("Perm.String = %q", got)
	}
	if got := Perm(0).String(); got != "---" {
		t.Errorf("Perm.String = %q", got)
	}
}

func BenchmarkLoad8(b *testing.B) {
	m := New()
	m.Map(0x1000, 0x100000, PermRW)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Load(0x1000+uint64(i&0xFFF8), 8)
	}
}

func BenchmarkStore8(b *testing.B) {
	m := New()
	m.Map(0x1000, 0x100000, PermRW)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Store(0x1000+uint64(i&0xFFF8), 8, uint64(i))
	}
}

// TestRangeTable pins the range page table's shape and the semantics it
// must keep: Map over mapped pages keeps their contents, Protect leaves
// holes unmapped, Unmap drops frames (a re-mapped page is demand-zero),
// and touching ranges of equal permission coalesce.
func TestRangeTable(t *testing.T) {
	m := New()
	m.Map(0x10000, 0x8000, PermRW) // pages 0x10..0x17
	if err := m.Store(0x12000, 8, 42); err != nil {
		t.Fatal(err)
	}
	m.Map(0x11000, 0x2000, PermRead) // re-map pages 0x11..0x12
	if v, err := m.Load(0x12000, 8); err != nil || v != 42 {
		t.Errorf("re-mapped page lost its contents: %d, %v", v, err)
	}
	if got := len(m.ranges); got != 3 {
		t.Errorf("ranges after split = %v, want 3", m.ranges)
	}
	m.Map(0x11000, 0x2000, PermRW) // same perm as neighbours: coalesce
	if len(m.ranges) != 1 || m.MappedPages() != 8 {
		t.Errorf("ranges after re-merge = %v (%d pages), want one range of 8", m.ranges, m.MappedPages())
	}

	m.Unmap(0x13000, 0x1000)
	m.Protect(0x10000, 0x8000, PermRead)
	if m.Mapped(0x13000) {
		t.Error("Protect mapped a hole")
	}
	if len(m.ranges) != 2 || m.MappedPages() != 7 {
		t.Errorf("ranges after unmap+protect = %v (%d pages)", m.ranges, m.MappedPages())
	}

	m.Unmap(0x12000, 0x1000)
	m.Map(0x12000, 0x1000, PermRW)
	if v, err := m.Load(0x12000, 8); err != nil || v != 0 {
		t.Errorf("re-mapped page after Unmap = %d, %v, want demand-zero", v, err)
	}
	if len(m.frames) != 0 {
		t.Errorf("Unmap left %d frames behind", len(m.frames))
	}
}

// TestMapWrappedRangeClamps: a range running past 2^64 is clamped to the
// top of the address space (it used to loop over ~2^52 page indexes).
func TestMapWrappedRangeClamps(t *testing.T) {
	m := New()
	top := ^uint64(0) &^ (PageSize - 1) // last page
	m.Map(top-PageSize, 3*PageSize, PermRW)
	if got := m.MappedPages(); got != 2 {
		t.Errorf("MappedPages = %d, want 2", got)
	}
	if !m.Mapped(top) || m.Mapped(0) {
		t.Error("wrapped Map must cover the top pages and not page 0")
	}
	m.Protect(top, 2*PageSize, PermRead)
	if m.PermAt(top) != PermRead || m.PermAt(top-PageSize) != PermRW {
		t.Errorf("perms = %v %v", m.PermAt(top-PageSize), m.PermAt(top))
	}
	m.Unmap(top-PageSize, ^uint64(0))
	if m.MappedPages() != 0 {
		t.Errorf("MappedPages after wrapped Unmap = %d", m.MappedPages())
	}
}
