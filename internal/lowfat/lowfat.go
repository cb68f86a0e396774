// Package lowfat implements the low-fat memory allocator and pointer
// encoding of Duck & Yap (paper §2.1, Fig. 2).
//
// The 64-bit virtual address space is partitioned into equally sized 32 GB
// regions. Regions #1..#M each contain a subheap servicing allocations of a
// single size class; objects inside region #i are placed at absolute
// addresses that are multiples of SIZES[i]. Everything else (code, globals,
// stack, oversized allocations) lives in non-fat regions.
//
// This placement makes the two low-fat pointer operations O(1):
//
//	size(ptr) = SIZES[ptr / 32GB]
//	base(ptr) = ptr − (ptr mod size(ptr))
//
// with SIZES[i] = SIZE_MAX for non-fat regions, so that non-fat pointers
// are always "in bounds" (over-approximate but valid bounds).
//
// The size classes follow the LowFat default configuration: 64 linear
// classes of 16·i bytes (16..1024), then power-of-two classes up to 64 MB.
// Larger allocations fall back to a designated non-fat legacy region, as
// the real allocator falls back to mmap.
package lowfat

import (
	"fmt"

	"redfat/internal/mem"
	"redfat/internal/telemetry"
)

// Region geometry.
const (
	// RegionShift is log2 of the region size: 32 GB regions.
	RegionShift = 35
	// RegionSize is the size of each region (32 GB).
	RegionSize = 1 << RegionShift

	// NumLinear is the number of linear size classes (16, 32, ..., 1024).
	NumLinear = 64
	// NumPow2 is the number of power-of-two classes (2 KB .. 64 MB).
	NumPow2 = 16
	// NumClasses is the total number of low-fat size classes.
	NumClasses = NumLinear + NumPow2

	// MaxClassSize is the largest low-fat allocation size (64 MB);
	// larger requests are serviced from the non-fat legacy region.
	MaxClassSize = 1 << (10 + NumPow2) // 2^26 = 64 MB

	// LegacyRegionIndex is the region used for oversized (non-fat)
	// allocations. It sits just past the low-fat regions.
	LegacyRegionIndex = NumClasses + 2

	// SizeMax is the "infinite" size returned for non-fat pointers.
	SizeMax = ^uint64(0)
)

// HeapLow and HeapHigh bound the address range that may contain low-fat
// heap memory, used by the check-elimination analysis (paper §6).
const (
	HeapLow  = 1 * RegionSize
	HeapHigh = uint64(LegacyRegionIndex+1) * RegionSize
)

// sizes is the SIZES table: region index → allocation size.
var sizes [NumClasses + 1]uint64

func init() {
	for i := 1; i <= NumLinear; i++ {
		sizes[i] = uint64(16 * i)
	}
	for i := 0; i < NumPow2; i++ {
		sizes[NumLinear+1+i] = 1 << (11 + i)
	}
}

// RegionIndex returns the 32 GB region number containing ptr.
func RegionIndex(ptr uint64) uint64 { return ptr >> RegionShift }

// Size implements the low-fat size(ptr) operation: the allocation size of
// the region containing ptr, or SizeMax for non-fat pointers.
func Size(ptr uint64) uint64 {
	idx := ptr >> RegionShift
	if idx >= 1 && idx <= NumClasses {
		return sizes[idx]
	}
	return SizeMax
}

// Base implements the low-fat base(ptr) operation: the base address of the
// (potential) object containing ptr, or 0 (NULL) for non-fat pointers.
func Base(ptr uint64) uint64 {
	idx := ptr >> RegionShift
	if idx >= 1 && idx <= NumClasses {
		size := sizes[idx]
		return ptr - ptr%size
	}
	return 0
}

// IsLowFat reports whether ptr points into a low-fat region.
func IsLowFat(ptr uint64) bool {
	idx := ptr >> RegionShift
	return idx >= 1 && idx <= NumClasses
}

// ClassFor returns the smallest size-class index whose allocation size is
// ≥ size, or 0 if the request must go to the legacy region.
func ClassFor(size uint64) int {
	if size == 0 {
		size = 1
	}
	if size <= 16*NumLinear {
		return int((size + 15) / 16)
	}
	if size > MaxClassSize {
		return 0
	}
	// Smallest power of two ≥ size, at least 2 KB.
	c := NumLinear + 1
	s := uint64(2048)
	for s < size {
		s <<= 1
		c++
	}
	return c
}

// ClassSize returns the allocation size of class index c.
func ClassSize(c int) uint64 {
	if c >= 1 && c <= NumClasses {
		return sizes[c]
	}
	return SizeMax
}

// Stats carries allocator accounting.
type Stats struct {
	Allocs      uint64
	Frees       uint64
	BytesInUse  uint64
	PeakInUse   uint64
	LegacyAlloc uint64 // allocations that fell back to the legacy region
}

type subheap struct {
	class     int
	size      uint64 // slot size
	next      uint64 // bump pointer (absolute address of next fresh slot)
	end       uint64 // region end
	mappedTo  uint64 // pages mapped up to this address
	freeSlots []uint64
}

// Allocator is a low-fat allocator over a VM address space.
type Allocator struct {
	mem    *mem.Memory
	heaps  [NumClasses + 1]subheap
	legacy legacyHeap
	live   map[uint64]uint64 // slot base → requested size (alloc integrity)
	stats  Stats

	// rng state for optional placement randomization (paper §8 mentions
	// that RedFat incorporates basic heap randomization).
	rngState  uint64
	Randomize bool

	tel *allocMetrics
}

// allocMetrics holds the low-fat allocator's registry handles.
type allocMetrics struct {
	allocs    *telemetry.Counter
	frees     *telemetry.Counter
	legacy    *telemetry.Counter
	reuses    *telemetry.Counter // allocations served from a free list
	mapped    *telemetry.Counter // bytes of fresh pages mapped
	liveBytes *telemetry.Gauge
	peakBytes *telemetry.Gauge
	classes   *telemetry.Histogram // size-class occupancy by slot size
}

// AttachTelemetry binds the allocator's counters to reg.
func (a *Allocator) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	a.tel = &allocMetrics{
		allocs:    reg.Counter("lowfat.allocs"),
		frees:     reg.Counter("lowfat.frees"),
		legacy:    reg.Counter("lowfat.legacy.allocs"),
		reuses:    reg.Counter("lowfat.freelist.reuses"),
		mapped:    reg.Counter("lowfat.mapped.bytes"),
		liveBytes: reg.Gauge("lowfat.live.bytes"),
		peakBytes: reg.Gauge("lowfat.peak.bytes"),
		classes:   reg.Histogram("lowfat.class.size", telemetry.Pow2Bounds(4, 26)),
	}
}

// noteLive mirrors the BytesInUse/PeakInUse account into the registry.
func (a *Allocator) noteLive() {
	if a.tel != nil {
		a.tel.liveBytes.Set(a.stats.BytesInUse)
		a.tel.peakBytes.Set(a.stats.PeakInUse)
	}
}

// legacyHeap is the fallback bump allocator for oversized requests; it
// lives in a non-fat region, mirroring the real allocator's mmap fallback.
type legacyHeap struct {
	next uint64
	end  uint64
	live map[uint64]uint64 // ptr → mapped size
}

// New creates a low-fat allocator managing the standard region layout on m.
func New(m *mem.Memory) *Allocator {
	a := &Allocator{
		mem:      m,
		live:     make(map[uint64]uint64),
		rngState: 0x9E3779B97F4A7C15,
	}
	for c := 1; c <= NumClasses; c++ {
		base := uint64(c) * RegionSize
		size := sizes[c]
		start := base
		if rem := start % size; rem != 0 {
			start += size - rem
		}
		a.heaps[c] = subheap{
			class:    c,
			size:     size,
			next:     start,
			end:      base + RegionSize,
			mappedTo: start,
		}
	}
	a.legacy = legacyHeap{
		next: uint64(LegacyRegionIndex) * RegionSize,
		end:  uint64(LegacyRegionIndex+1) * RegionSize,
		live: make(map[uint64]uint64),
	}
	return a
}

// Stats returns a copy of the allocator statistics.
func (a *Allocator) Stats() Stats { return a.stats }

func (a *Allocator) rand() uint64 {
	// xorshift64*; deterministic, host-side only.
	x := a.rngState
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	a.rngState = x
	return x * 0x2545F4914F6CDD1D
}

const pageAlign = mem.PageSize - 1

// Alloc services an allocation of the given size, returning the object
// base address. Low-fat allocations are size-aligned within their class
// region; oversized requests fall back to the (non-fat) legacy region.
func (a *Allocator) Alloc(size uint64) (uint64, error) {
	c := ClassFor(size)
	if c == 0 {
		return a.allocLegacy(size)
	}
	h := &a.heaps[c]
	var ptr uint64
	if n := len(h.freeSlots); n > 0 {
		i := n - 1
		if a.Randomize && n > 1 {
			i = int(a.rand() % uint64(n))
		}
		ptr = h.freeSlots[i]
		h.freeSlots[i] = h.freeSlots[n-1]
		h.freeSlots = h.freeSlots[:n-1]
		if a.tel != nil {
			a.tel.reuses.Inc()
		}
	} else {
		if h.next+h.size > h.end {
			return 0, fmt.Errorf("lowfat: region #%d (size class %d) exhausted", c, h.size)
		}
		ptr = h.next
		h.next += h.size
		if h.next > h.mappedTo {
			// Map a chunk of fresh pages (at least 64 KB) so small
			// allocations don't pay a map call each.
			chunk := h.size
			if chunk < 1<<16 {
				chunk = 1 << 16
			}
			mapEnd := (h.mappedTo + chunk + pageAlign) &^ uint64(pageAlign)
			if mapEnd > h.end {
				mapEnd = h.end
			}
			a.mem.Map(h.mappedTo, mapEnd-h.mappedTo, mem.PermRW)
			if a.tel != nil {
				a.tel.mapped.Add(mapEnd - h.mappedTo)
			}
			h.mappedTo = mapEnd
		}
	}
	a.live[ptr] = size
	a.stats.Allocs++
	a.stats.BytesInUse += h.size
	if a.stats.BytesInUse > a.stats.PeakInUse {
		a.stats.PeakInUse = a.stats.BytesInUse
	}
	if a.tel != nil {
		a.tel.allocs.Inc()
		a.tel.classes.Observe(h.size)
		a.noteLive()
	}
	return ptr, nil
}

func (a *Allocator) allocLegacy(size uint64) (uint64, error) {
	// Compare against the space left, not next+mapped against end: a
	// huge request would wrap either sum.
	var avail uint64
	if a.legacy.next < a.legacy.end {
		avail = a.legacy.end - a.legacy.next
	}
	if size > avail {
		return 0, fmt.Errorf("lowfat: legacy region exhausted")
	}
	mapped := (size + pageAlign) &^ uint64(pageAlign)
	if mapped > avail {
		return 0, fmt.Errorf("lowfat: legacy region exhausted")
	}
	ptr := a.legacy.next
	a.legacy.next += mapped + mem.PageSize // guard page gap
	a.mem.Map(ptr, mapped, mem.PermRW)
	a.legacy.live[ptr] = mapped
	a.live[ptr] = size
	a.stats.Allocs++
	a.stats.LegacyAlloc++
	a.stats.BytesInUse += mapped
	if a.stats.BytesInUse > a.stats.PeakInUse {
		a.stats.PeakInUse = a.stats.BytesInUse
	}
	if a.tel != nil {
		a.tel.allocs.Inc()
		a.tel.legacy.Inc()
		a.tel.mapped.Add(mapped)
		a.tel.classes.Observe(mapped)
		a.noteLive()
	}
	return ptr, nil
}

// Free releases an allocation previously returned by Alloc. Freeing an
// address that is not a live allocation base is an error (the real
// allocator would abort).
func (a *Allocator) Free(ptr uint64) error {
	if _, ok := a.live[ptr]; !ok {
		return fmt.Errorf("lowfat: free of non-allocated pointer %#x", ptr)
	}
	delete(a.live, ptr)
	a.stats.Frees++
	if a.tel != nil {
		a.tel.frees.Inc()
	}
	if IsLowFat(ptr) {
		c := RegionIndex(ptr)
		h := &a.heaps[c]
		h.freeSlots = append(h.freeSlots, ptr)
		a.stats.BytesInUse -= h.size
		a.noteLive()
		return nil
	}
	mapped := a.legacy.live[ptr]
	delete(a.legacy.live, ptr)
	a.stats.BytesInUse -= mapped
	a.noteLive()
	// Keep legacy pages mapped (like MADV_FREE); contents remain until
	// reuse, matching use-after-free exploitability on real systems.
	return nil
}

// UsableSize returns the slot size backing a live allocation (the rounded
// class size for low-fat pointers, the mapped size for legacy pointers).
func (a *Allocator) UsableSize(ptr uint64) (uint64, bool) {
	if _, ok := a.live[ptr]; !ok {
		return 0, false
	}
	if IsLowFat(ptr) {
		return Size(ptr), true
	}
	return a.legacy.live[ptr], true
}

// RequestedSize returns the originally requested size of a live allocation.
func (a *Allocator) RequestedSize(ptr uint64) (uint64, bool) {
	size, ok := a.live[ptr]
	return size, ok
}

// LiveCount returns the number of live allocations.
func (a *Allocator) LiveCount() int { return len(a.live) }
