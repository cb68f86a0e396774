package rtlib

// Fused check plans for the VM's superblock tier.
//
// The interpreter reaches a check through the RTCALL binding (Bindings →
// execSite). The superblock compiler instead asks VM.InlineCheck for the
// site's plan so the check can stay on-trace as a fused closure: MaxCost
// feeds the trace's worst-case budget guard and Exec runs the same full
// Fig. 4 check. Guest cycle accounting and verdicts are bit-identical to
// the trampoline path; only host-side dispatch differs.

import (
	"slices"

	"redfat/internal/relf"
	"redfat/internal/vm"
)

// jitPlan builds the fusable plan for one site.
func (rt *Runtime) jitPlan(arg uint32) *vm.JITCheck {
	return &vm.JITCheck{
		MaxCost: slices.Max(rt.fast[arg].costs[:]),
		Exec:    func(v *vm.VM) error { return rt.execSite(v, arg) },
	}
}

// InstallInlineChecks points v.InlineCheck at the module→runtime binding
// so the superblock tier can fuse instrumented checks. An RTCALL
// resolves to a plan only when its pc falls in an instrumented module,
// the import slot is the check binding, and the argument is a valid site
// index; anything else (allocator calls, corrupt site indices) returns
// nil and the trace ends there, leaving the interpreter to raise exactly
// the error it would have raised anyway.
func InstallInlineChecks(v *vm.VM, mods map[*relf.Binary]*Runtime) {
	if len(mods) == 0 {
		return
	}
	v.InlineCheck = func(v *vm.VM, pc uint64, importIdx int, arg uint32) *vm.JITCheck {
		bin := v.ModuleBinary(pc)
		if bin == nil {
			return nil
		}
		rt := mods[bin]
		if rt == nil {
			return nil
		}
		if importIdx < 0 || importIdx >= len(bin.Imports) || bin.Imports[importIdx] != CheckImport {
			return nil
		}
		if int(arg) >= len(rt.Checks) {
			return nil
		}
		return rt.jitPlan(arg)
	}
}
