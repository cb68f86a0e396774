package rtlib

// Hardened libc span intrinsics (libredfat interposition model).
//
// The real libredfat replaces memcpy/memset/str* with versions that
// resolve the low-fat allocation once and validate the whole [p, p+n)
// operand in O(1), instead of paying one instrumented check per byte.
// SpanLibC models that: every intrinsic span-checks each operand against
// the redzone heap's object metadata, charges the O(1) check cost plus
// the usual per-byte copy cost, then performs the operation through the
// mem bulk accessors. Detections carry the same MemError shape as the
// per-access fastcheck path (kind, first out-of-bounds byte, PC,
// allocation-site note) so Table 2 rows are directly comparable.

import (
	"fmt"

	"redfat/internal/isa"
	"redfat/internal/lowfat"
	"redfat/internal/mem"
	"redfat/internal/redzone"
	"redfat/internal/vm"
)

// checkSpan validates the whole operand [ptr, ptr+n) against the object
// containing ptr, resolving base and size exactly once. op names the
// intrinsic and operand for the forensic note ("memcpy source"). A nil
// return means the span is in bounds (or the pointer is not heap-managed,
// which span checks — like the per-access fallback path — must permit).
// Zero-length spans are vacuously fine and charge nothing: a pointer one
// past the end of an object is legal as long as it is never dereferenced.
func checkSpan(v *vm.VM, h *redzone.Heap, op string, ptr, n uint64, write bool) error {
	if n == 0 {
		return nil
	}
	v.CountLibcSpanCheck()
	base := lowfat.Base(ptr)
	if base == 0 {
		// Non-fat pointer (globals, stack, legacy region): not ours to
		// police, same verdict the per-access checker reaches after its
		// base(LB) fallback.
		v.Cycles += costSpanCheckNonFat
		return nil
	}
	v.Cycles += costSpanCheckFat
	lb, ub := ptr, ptr+n

	size, err := h.Mem.Load(base, redzone.Size>>1)
	wild := false
	if err != nil {
		// Reserved-but-unmapped slot memory: treat as a freed/never
		// allocated object, like the per-access path does.
		size, wild = 0, true
	}

	oob := vm.ErrOOBRead
	if write {
		oob = vm.ErrOOBWrite
	}
	kind, bad := verdict(base, size, lb, ub, wild, true, oob)
	if !bad {
		// Span fully inside the live object. Canary mode additionally
		// verifies the slack bytes the span borders were not smashed.
		if smash, ok := h.CheckCanary(base); !ok {
			v.CountLibcSpanFail()
			if aerr := v.Report(vm.MemError{
				Kind:      vm.ErrCorruptMeta,
				Addr:      smash,
				PC:        v.RIP,
				Component: "redzone",
				Note:      fmt.Sprintf("span check at %s: canary smashed at %#x", op, smash),
			}); aerr != nil {
				return aerr
			}
		}
		return nil
	}
	// The fault address is the corrupted header, or the first byte of
	// the span outside the object.
	fault := lb
	switch {
	case kind == vm.ErrCorruptMeta:
		fault = base
	case size != 0 && lb >= base+redzone.Size:
		fault = max(base+redzone.Size+size, lb)
	}

	v.CountLibcSpanFail()
	if aerr := v.Report(vm.MemError{
		Kind:      kind,
		Addr:      fault,
		PC:        v.RIP,
		Component: "lowfat",
		Note:      describeSpan(h, op, base, size, fault),
	}); aerr != nil {
		// Abort mode: the detection is fatal, exactly like a failed
		// per-access check. Propagate so the run terminates here.
		return aerr
	}
	return errSpan
}

// errSpan is a sentinel telling the intrinsic the span failed; the
// MemError was already reported. Any other non-nil checkSpan error is the
// fatal abort-mode detection and must propagate out of the binding.
var errSpan = fmt.Errorf("rtlib: span check failed")

// spanAbort reports whether a checkSpan/spanStrlen error is the fatal
// abort-mode detection (as opposed to the handled errSpan sentinel).
func spanAbort(err error) bool { return err != nil && err != errSpan }

// describeSpan builds the allocation-site note for a span-check
// detection.
func describeSpan(h *redzone.Heap, op string, base, size, addr uint64) string {
	allocPC, objSize, freePC, tag, ok := allocSite(h, base)
	if !ok {
		return fmt.Sprintf("span check at %s", op)
	}
	if size == 0 {
		return fmt.Sprintf("span check at %s; access to a %d-byte object freed at %#x (allocated at %#x)%s",
			op, objSize, freePC, allocPC, tag)
	}
	if addr >= base+redzone.Size+size {
		return fmt.Sprintf("span check at %s; access %d bytes past the end of a %d-byte object allocated at %#x%s",
			op, addr-(base+redzone.Size+size)+1, objSize, allocPC, tag)
	}
	return fmt.Sprintf("span check at %s; access %d bytes before the start of a %d-byte object allocated at %#x%s",
		op, base+redzone.Size-addr, objSize, allocPC, tag)
}

// spanStrlen measures the string at s with span awareness: the scan
// limit is clamped to the end of the containing live object, so a
// missing terminator is detected at the object boundary instead of
// walking into neighbouring slots. Returns the length and nil when the
// caller should proceed; errSpan after a reported (non-fatal) detection
// or when the measurement needs the baseline fallback; any other error
// is the fatal abort-mode detection.
func spanStrlen(v *vm.VM, h *redzone.Heap, op string, s uint64) (uint64, error) {
	if err := checkSpan(v, h, op, s, 1, false); err != nil {
		return 0, err
	}
	limit := uint64(strMax)
	clamped := false
	if base := lowfat.Base(s); base != 0 {
		if size, err := h.Mem.Load(base, redzone.Size>>1); err == nil && size > 0 &&
			s >= base+redzone.Size && s < base+redzone.Size+size {
			if room := base + redzone.Size + size - s; room < limit {
				limit, clamped = room, true
			}
		}
	}
	n, err := strlenAt(h.Mem, s, limit)
	if err == nil {
		return n, nil
	}
	if !clamped {
		// Hard error (unterminated beyond strMax, or unmapped memory):
		// surface like the baseline strlen does, via the caller.
		return n, errSpan
	}
	// The string runs to the end of its object without a terminator: the
	// byte-wise libc would read past the end, so report it as an OOB read
	// at the first out-of-bounds byte.
	base := lowfat.Base(s)
	size, _ := h.Mem.Load(base, redzone.Size>>1)
	fault := base + redzone.Size + size
	v.CountLibcSpanFail()
	if aerr := v.Report(vm.MemError{
		Kind:      vm.ErrOOBRead,
		Addr:      fault,
		PC:        v.RIP,
		Component: "lowfat",
		Note:      describeSpan(h, op, base, size, fault),
	}); aerr != nil {
		return n, aerr
	}
	return n, errSpan
}

// SpanLibC returns hardened overrides for the span-operating libc
// bindings. Merge it over LibC's baseline bindings when libc span
// checking is enabled (the NoLibcCheck knob skips the merge).
func SpanLibC(h *redzone.Heap, m *mem.Memory) vm.Bindings {
	b := vm.Bindings{}

	b["memset"] = func(v *vm.VM, _ uint32) error {
		dst, c, n := v.Regs[isa.RDI], v.Regs[isa.RSI], v.Regs[isa.RDX]
		err := checkSpan(v, h, "memset destination", dst, n, true)
		if spanAbort(err) {
			return err
		}
		v.Cycles += 20 + n/8*costPerByte8
		if err != nil {
			v.Regs[isa.RAX] = dst
			return nil
		}
		if err := m.Memset(dst, byte(c), n); err != nil {
			return fmt.Errorf("memset(%#x, %d, %d): %w", dst, c, n, err)
		}
		v.Regs[isa.RAX] = dst
		return nil
	}

	b["memcpy"] = func(v *vm.VM, _ uint32) error {
		dst, src, n := v.Regs[isa.RDI], v.Regs[isa.RSI], v.Regs[isa.RDX]
		srcErr := checkSpan(v, h, "memcpy source", src, n, false)
		if spanAbort(srcErr) {
			return srcErr
		}
		dstErr := checkSpan(v, h, "memcpy destination", dst, n, true)
		if spanAbort(dstErr) {
			return dstErr
		}
		if n != 0 && dst != src {
			d := dst - src
			if src > dst {
				d = src - dst
			}
			if d < n {
				// The real memcpy's behaviour is undefined here; the
				// hardened one reports it instead of silently producing
				// direction-dependent garbage.
				v.CountLibcSpanFail()
				if aerr := v.Report(vm.MemError{
					Kind: vm.ErrOverlap,
					Addr: dst,
					PC:   v.RIP,
					Note: fmt.Sprintf("memcpy ranges [%#x,+%d) and [%#x,+%d) overlap; use memmove", dst, n, src, n),
				}); aerr != nil {
					return aerr
				}
			}
		}
		v.Cycles += 20 + n/8*costPerByte8
		if srcErr != nil || dstErr != nil {
			v.Regs[isa.RAX] = dst
			return nil
		}
		if err := memmoveBytes(m, dst, src, n); err != nil {
			return fmt.Errorf("memcpy(%#x, %#x, %d): %w", dst, src, n, err)
		}
		v.Regs[isa.RAX] = dst
		return nil
	}

	b["memmove"] = func(v *vm.VM, _ uint32) error {
		dst, src, n := v.Regs[isa.RDI], v.Regs[isa.RSI], v.Regs[isa.RDX]
		srcErr := checkSpan(v, h, "memmove source", src, n, false)
		if spanAbort(srcErr) {
			return srcErr
		}
		dstErr := checkSpan(v, h, "memmove destination", dst, n, true)
		if spanAbort(dstErr) {
			return dstErr
		}
		v.Cycles += 20 + n/8*costPerByte8
		if srcErr != nil || dstErr != nil {
			v.Regs[isa.RAX] = dst
			return nil
		}
		if err := memmoveBytes(m, dst, src, n); err != nil {
			return fmt.Errorf("memmove(%#x, %#x, %d): %w", dst, src, n, err)
		}
		v.Regs[isa.RAX] = dst
		return nil
	}

	b["memcmp"] = func(v *vm.VM, _ uint32) error {
		s1, s2, n := v.Regs[isa.RDI], v.Regs[isa.RSI], v.Regs[isa.RDX]
		e1 := checkSpan(v, h, "memcmp operand 1", s1, n, false)
		if spanAbort(e1) {
			return e1
		}
		e2 := checkSpan(v, h, "memcmp operand 2", s2, n, false)
		if spanAbort(e2) {
			return e2
		}
		if e1 != nil || e2 != nil {
			v.Cycles += 20
			v.Regs[isa.RAX] = 0
			return nil
		}
		compared, res, err := memcmpBytes(m, s1, s2, n)
		v.Cycles += 20 + compared/8*costPerByte8
		if err != nil {
			return fmt.Errorf("memcmp(%#x, %#x, %d): %w", s1, s2, n, err)
		}
		v.Regs[isa.RAX] = uint64(res)
		return nil
	}

	b["strlen"] = func(v *vm.VM, _ uint32) error {
		s := v.Regs[isa.RDI]
		n, serr := spanStrlen(v, h, "strlen operand", s)
		if spanAbort(serr) {
			return serr
		}
		if serr != nil {
			// Re-measure without the object clamp so the modelled
			// behaviour (length found past the redzone, or a hard
			// unterminated-string error) matches the baseline binding
			// when the run continues past the detection.
			full, err := strlenAt(m, s, strMax)
			if err != nil {
				return fmt.Errorf("strlen(%#x): %w", s, err)
			}
			n = full
		}
		v.Cycles += 10 + n
		v.Regs[isa.RAX] = n
		return nil
	}

	b["strcpy"] = func(v *vm.VM, _ uint32) error {
		dst, src := v.Regs[isa.RDI], v.Regs[isa.RSI]
		n, serr := spanStrlen(v, h, "strcpy source", src)
		if spanAbort(serr) {
			return serr
		}
		v.Cycles += 10 + n
		if serr != nil {
			v.Regs[isa.RAX] = dst
			return nil
		}
		if err := checkSpan(v, h, "strcpy destination", dst, n+1, true); err != nil {
			if spanAbort(err) {
				return err
			}
			v.Regs[isa.RAX] = dst
			return nil
		}
		if err := memmoveBytes(m, dst, src, n+1); err != nil {
			return fmt.Errorf("strcpy(%#x, %#x): %w", dst, src, err)
		}
		v.Regs[isa.RAX] = dst
		return nil
	}

	b["strcat"] = func(v *vm.VM, _ uint32) error {
		dst, src := v.Regs[isa.RDI], v.Regs[isa.RSI]
		dlen, derr := spanStrlen(v, h, "strcat destination", dst)
		if spanAbort(derr) {
			return derr
		}
		slen, serr := spanStrlen(v, h, "strcat source", src)
		if spanAbort(serr) {
			return serr
		}
		v.Cycles += 10 + dlen + slen
		if derr != nil || serr != nil {
			v.Regs[isa.RAX] = dst
			return nil
		}
		if err := checkSpan(v, h, "strcat destination", dst, dlen+slen+1, true); err != nil {
			if spanAbort(err) {
				return err
			}
			v.Regs[isa.RAX] = dst
			return nil
		}
		if err := memmoveBytes(m, dst+dlen, src, slen+1); err != nil {
			return fmt.Errorf("strcat(%#x, %#x): %w", dst, src, err)
		}
		v.Regs[isa.RAX] = dst
		return nil
	}

	b["strcmp"] = func(v *vm.VM, _ uint32) error {
		s1, s2 := v.Regs[isa.RDI], v.Regs[isa.RSI]
		_, e1 := spanStrlen(v, h, "strcmp operand 1", s1)
		if spanAbort(e1) {
			return e1
		}
		_, e2 := spanStrlen(v, h, "strcmp operand 2", s2)
		if spanAbort(e2) {
			return e2
		}
		if e1 != nil || e2 != nil {
			v.Cycles += 10
			v.Regs[isa.RAX] = 0
			return nil
		}
		compared, res, err := strcmpBytes(m, s1, s2)
		v.Cycles += 10 + compared
		if err != nil {
			return fmt.Errorf("strcmp(%#x, %#x): %w", s1, s2, err)
		}
		v.Regs[isa.RAX] = uint64(res)
		return nil
	}

	return b
}
