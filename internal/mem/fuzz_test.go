package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// refMem is the naive reference model FuzzMemOps checks Memory against:
// one entry per mapped page, holding its permissions and its bytes (nil
// until the first write), with every access resolved byte by byte.
type refMem struct {
	pages map[uint64]*refPage
}

type refPage struct {
	perm Perm
	data []byte
}

// span calls f on every page index covering [addr, addr+size), clamped
// to the top of the address space like Memory's own range edits.
func (r *refMem) span(addr, size uint64, f func(idx uint64)) {
	if size == 0 {
		return
	}
	end := addr + size - 1
	if end < addr {
		end = ^uint64(0)
	}
	for idx := addr >> PageShift; ; idx++ {
		f(idx)
		if idx == end>>PageShift {
			return
		}
	}
}

func (r *refMem) Map(addr, size uint64, perm Perm) {
	r.span(addr, size, func(idx uint64) {
		if p := r.pages[idx]; p != nil {
			p.perm = perm
			return
		}
		r.pages[idx] = &refPage{perm: perm}
	})
}

func (r *refMem) Unmap(addr, size uint64) {
	r.span(addr, size, func(idx uint64) { delete(r.pages, idx) })
}

func (r *refMem) Protect(addr, size uint64, perm Perm) {
	r.span(addr, size, func(idx uint64) {
		if p := r.pages[idx]; p != nil {
			p.perm = perm
		}
	})
}

// page returns the page containing a if it grants perm.
func (r *refMem) page(a uint64, perm Perm) *refPage {
	if p := r.pages[a>>PageShift]; p != nil && p.perm&perm == perm {
		return p
	}
	return nil
}

func (r *refMem) get(a uint64, perm Perm) (byte, bool) {
	p := r.page(a, perm)
	if p == nil {
		return 0, false
	}
	if p.data == nil {
		return 0, true
	}
	return p.data[a&pageMask], true
}

func (r *refMem) put(a uint64, b byte) bool {
	p := r.page(a, PermWrite)
	if p == nil {
		return false
	}
	if p.data == nil {
		p.data = make([]byte, PageSize)
	}
	p.data[a&pageMask] = b
	return true
}

// read copies len(buf) bytes at addr, returning the first inaccessible
// address on a fault.
func (r *refMem) read(addr uint64, buf []byte) (uint64, bool) {
	for i := range buf {
		b, ok := r.get(addr+uint64(i), PermRead)
		if !ok {
			return addr + uint64(i), false
		}
		buf[i] = b
	}
	return 0, true
}

// write stores buf at addr byte by byte, stopping at (and returning) the
// first inaccessible address.
func (r *refMem) write(addr uint64, buf []byte) (uint64, bool) {
	for i, b := range buf {
		if !r.put(addr+uint64(i), b) {
			return addr + uint64(i), false
		}
	}
	return 0, true
}

func (r *refMem) fetch(addr uint64, buf []byte) int {
	for i := range buf {
		b, ok := r.get(addr+uint64(i), PermExec)
		if !ok {
			return i
		}
		buf[i] = b
	}
	return len(buf)
}

// opReader decodes the fuzz input into operands; past the end it yields
// zeros, so every input is a valid (possibly short) program.
type opReader struct{ data []byte }

func (o *opReader) byte() byte {
	if len(o.data) == 0 {
		return 0
	}
	b := o.data[0]
	o.data = o.data[1:]
	return b
}

func (o *opReader) u16() uint64 { return uint64(o.byte())<<8 | uint64(o.byte()) }

func (o *opReader) u64() uint64 {
	var b [8]byte
	for i := range b {
		b[i] = o.byte()
	}
	return binary.LittleEndian.Uint64(b[:])
}

// The fuzzed address space: a low window of fuzzWindowPages pages (plus
// one neighbour page on each side) and the top fuzzTopPages pages of the
// address space, where ranges and accesses wrap past 2^64.
const (
	fuzzBase        = 0x40000
	fuzzWindowPages = 16
	fuzzTopPages    = 4
	fuzzTopBase     = ^uint64(0) - fuzzTopPages*PageSize + 1
)

// addr picks an address in one of the two windows.
func (o *opReader) addr() uint64 {
	if o.byte()&1 == 0 {
		return fuzzBase - PageSize + o.u16()%((fuzzWindowPages+2)*PageSize)
	}
	return fuzzTopBase + o.u16()%(fuzzTopPages*PageSize)
}

// probePages lists every page whose state FuzzMemOps compares after each
// operation: both windows, their neighbours and page 0 (where wrapped
// accesses land).
func probePages() []uint64 {
	idx := []uint64{0}
	for p := uint64(fuzzBase>>PageShift) - 1; p <= fuzzBase>>PageShift+fuzzWindowPages; p++ {
		idx = append(idx, p)
	}
	for p := fuzzTopBase >> PageShift; p <= ^uint64(0)>>PageShift; p++ {
		idx = append(idx, p)
	}
	return idx
}

// faultAddr extracts the fault address of err, or reports false.
func faultAddr(err error) (uint64, bool) {
	var f *Fault
	if errors.As(err, &f) {
		return f.Addr, true
	}
	return 0, false
}

// FuzzMemOps runs a decoded sequence of Map, Unmap, Protect, Load,
// Store, ReadAt, WriteAt and Fetch operations against Memory (with the
// TLB on and off) and against the naive per-page reference model, and
// requires them to agree on every value, fault address, PermAt, Mapped
// and MappedPages. Unlike TestTLBIdentityRandomOps, which compares the
// TLB against the same page table, this checks the range page table
// itself. The committed corpus under testdata/fuzz/FuzzMemOps replays
// under plain go test.
func FuzzMemOps(f *testing.F) {
	f.Add([]byte{0, 0, 0x10, 0x00, 0x00, 0x40, 0x00, 3, 4, 0, 0x10, 0x08, 3, 0xAA, 3, 0, 0x10, 0x08, 3})
	f.Add([]byte{0, 1, 0x20, 0x00, 0xFF, 0xFF, 7, 4, 1, 0x3F, 0xFC, 3, 1, 2, 3, 4, 5, 6, 7, 8, 3, 1, 0x3F, 0xFC, 3})
	probes := probePages()
	f.Fuzz(func(t *testing.T, data []byte) {
		ref := &refMem{pages: map[uint64]*refPage{}}
		mems := [2]*Memory{New(), New()}
		mems[1].NoTLB = true
		o := &opReader{data: data}
		for step := 0; len(o.data) > 0 && step < 256; step++ {
			op := o.byte() % 8
			a := o.addr()
			switch op {
			case 0, 1, 2:
				size := o.u16() % ((fuzzWindowPages + 4) * PageSize)
				perm := Perm(o.byte() & 7)
				switch op {
				case 0:
					ref.Map(a, size, perm)
				case 1:
					ref.Unmap(a, size)
				case 2:
					ref.Protect(a, size, perm)
				}
				for _, m := range mems {
					switch op {
					case 0:
						m.Map(a, size, perm)
					case 1:
						m.Unmap(a, size)
					case 2:
						m.Protect(a, size, perm)
					}
				}
			case 3, 4:
				width := uint16(1) << (o.byte() % 4)
				var buf [8]byte
				if op == 3 {
					fa, ok := ref.read(a, buf[:width])
					want := binary.LittleEndian.Uint64(buf[:])
					for i, m := range mems {
						got, err := m.Load(a, width)
						checkAccess(t, step, i, "Load", err, fa, ok)
						if ok && got != want {
							t.Fatalf("step %d mem %d: Load(%#x, %d) = %#x, want %#x", step, i, a, width, got, want)
						}
					}
					break
				}
				val := o.u64()
				binary.LittleEndian.PutUint64(buf[:], val)
				fa, ok := ref.write(a, buf[:width])
				for i, m := range mems {
					checkAccess(t, step, i, "Store", m.Store(a, width, val), fa, ok)
				}
			case 5, 6:
				n := int(o.byte()) * 20
				if op == 5 {
					want := make([]byte, n)
					fa, ok := ref.read(a, want)
					for i, m := range mems {
						got := make([]byte, n)
						checkAccess(t, step, i, "ReadAt", m.ReadAt(a, got), fa, ok)
						if ok && !bytes.Equal(got, want) {
							t.Fatalf("step %d mem %d: ReadAt(%#x, %d) bytes differ", step, i, a, n)
						}
					}
					break
				}
				buf := make([]byte, n)
				seed := o.byte()
				for i := range buf {
					buf[i] = seed + byte(i)
				}
				fa, ok := ref.write(a, buf)
				for i, m := range mems {
					checkAccess(t, step, i, "WriteAt", m.WriteAt(a, buf), fa, ok)
				}
			case 7:
				want := make([]byte, o.byte()%32)
				wn := ref.fetch(a, want)
				for i, m := range mems {
					got := make([]byte, len(want))
					if n := m.Fetch(a, got); n != wn || !bytes.Equal(got[:n], want[:wn]) {
						t.Fatalf("step %d mem %d: Fetch(%#x, %d) = %d bytes % x, want %d bytes % x",
							step, i, a, len(want), n, got[:n], wn, want[:wn])
					}
				}
			}
			for i, m := range mems {
				if got, want := m.MappedPages(), uint64(len(ref.pages)); got != want {
					t.Fatalf("step %d mem %d: MappedPages = %d, want %d", step, i, got, want)
				}
				for _, idx := range probes {
					addr := idx << PageShift
					p := ref.pages[idx]
					var perm Perm
					if p != nil {
						perm = p.perm
					}
					if m.Mapped(addr) != (p != nil) || m.PermAt(addr) != perm {
						t.Fatalf("step %d mem %d: page %#x Mapped=%v PermAt=%v, want %v %v",
							step, i, addr, m.Mapped(addr), m.PermAt(addr), p != nil, perm)
					}
				}
			}
		}
	})
}

// checkAccess compares one access's outcome with the reference's: both
// succeed, or both fault at the same address.
func checkAccess(t *testing.T, step, which int, op string, err error, wantFault uint64, wantOK bool) {
	t.Helper()
	if wantOK {
		if err != nil {
			t.Fatalf("step %d mem %d: %s faulted (%v), reference succeeded", step, which, op, err)
		}
		return
	}
	got, ok := faultAddr(err)
	if !ok || got != wantFault {
		t.Fatalf("step %d mem %d: %s error %v, want fault at %#x", step, which, op, err, wantFault)
	}
}
