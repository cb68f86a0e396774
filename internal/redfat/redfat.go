// Package redfat implements the paper's primary contribution: the RedFat
// binary-hardening instrumentation.
//
// Given a RELF binary (stripped or not, PIC or not), Harden produces a
// drop-in replacement binary in which memory accesses are protected by the
// complementary (Redzone)+(LowFat) check of paper Fig. 4, inserted through
// E9Patch-style trampoline rewriting, with the paper's three optimizations:
// check elimination, check batching and check merging (§6), and the
// profile-based allow-list policy for false-positive avoidance (§5).
package redfat

import (
	"fmt"
	"math"
	"sort"

	"redfat/internal/cfg"
	"redfat/internal/e9"
	"redfat/internal/isa"
	"redfat/internal/lowfat"
	"redfat/internal/relf"
	"redfat/internal/rtlib"
	"redfat/internal/telemetry"
	"redfat/internal/vm"
)

// Options selects the instrumentation configuration. The zero value is a
// valid conservative configuration (redzone-only, unoptimized, read+write
// checking); use Defaults() for the fully optimized production defaults.
//
// Each knob is declared once, here. Its json tag is its key in a rewrite
// pack's manifest (the fields are in that key order), its flag and usage
// tags declare the redfat command's flag, and configBits gives its
// .rf.config bit.
type Options struct {
	// LowFat enables the combined (Redzone)+(LowFat) check. Sites not in
	// the allow-list (when one is given) fall back to redzone-only.
	LowFat bool `json:"lowfat" flag:"lowfat" usage:"enable the combined lowfat+redzone check"`

	// AllowList restricts full checking to the given instruction
	// addresses (from the profiling phase). Nil means "all sites" —
	// the configuration the paper evaluates for false positives.
	// .rf.config and the manifest record only its presence.
	AllowList map[uint64]bool `json:"-"`

	// CheckReads instruments read accesses as well as writes. Disabling
	// it is the paper's -reads configuration (write-only protection).
	CheckReads bool `json:"check_reads" flag:"reads" usage:"instrument reads as well as writes"`

	// SizeCheck enables metadata hardening (validating the stored SIZE
	// against the immutable low-fat slot size). Disabling it is the
	// paper's -size configuration.
	SizeCheck bool `json:"size_check" flag:"size" usage:"enable metadata (size) hardening"`

	// Elim, Batch, Merge enable the three optimizations of paper §6.
	Elim  bool `json:"elim" flag:"elim" usage:"enable check elimination"`
	Batch bool `json:"batch" flag:"batch" usage:"enable check batching"`
	Merge bool `json:"merge" flag:"merge" usage:"enable check merging"`

	// ElimDom enables dominator-based redundant-check elimination on
	// top of the syntactic Elim rule: a checked operand whose address
	// shape (segment/base/index/scale), mode and displacement span are
	// already covered by a check that dominates it — with the address
	// registers unredefined and no call in between — is dropped; the
	// dominating check subsumes it. Ignored in Profile mode, where
	// per-site execution statistics must stay complete.
	ElimDom bool `json:"elim_dom" flag:"elimdom" usage:"enable dominator-based redundant-check elimination"`

	// LocalLiveness restricts the dead-register/dead-flags trampoline
	// specialization to the legacy block-local scans instead of the
	// whole-CFG liveness solution. Exposed for ablation measurements;
	// the block-local answer is never more precise.
	LocalLiveness bool `json:"local_liveness,omitempty" flag:"local-liveness" usage:"restrict liveness to block-local scans (ablation)"`

	// NoClobberSpec disables the dead-register trampoline
	// specialization (paper §6, "Additional low-level optimizations"):
	// every trampoline then saves the full scratch set and flags.
	// Exposed for ablation measurements.
	NoClobberSpec bool `json:"no_clobber_spec,omitempty"`

	// Profile builds the profiling binary of paper Fig. 5 step 1:
	// every site uses the profiling check variant and never aborts.
	Profile bool `json:"profile,omitempty" flag:"profile" usage:"build the profiling-phase binary"`

	// MaxBatch bounds the number of accesses per trampoline (0 = 8).
	// .rf.config stores it in 16 bits; Harden rejects values outside
	// [0, 65535].
	MaxBatch int `json:"max_batch" flag:"maxbatch" usage:"maximum accesses per trampoline"`

	// NoLibcCheck records that the binary is intended to deploy without
	// the span-checked libc intrinsics (the libredfat interposition).
	// Policy metadata only — the run-time knob of the same name drives
	// execution — but recording it in .rf.config lets runpack replay and
	// the validator reconstruct the intended deployment, and puts the
	// bit under the runpack digest (tamper detection).
	NoLibcCheck bool `json:"no_libc_check,omitempty" flag:"nolibccheck" usage:"record that the binary deploys without the hardened libc intrinsics"`

	// NoIndirect disables indirect-flow recovery (jump-table resolution,
	// landing-pad target sets, RET/call-site pairing) in the dataflow
	// engine: indirect control flow stays ⊤ as in the seed analysis.
	// Only observable on marker-built inputs (those carrying .rf.jt);
	// exposed for ablation measurements.
	NoIndirect bool `json:"no_indirect,omitempty" flag:"noindirect" usage:"disable indirect-flow recovery in the dataflow engine (ablation)"`
}

// Defaults returns the fully optimized production configuration
// (the paper's "+merge" column).
func Defaults() Options {
	return Options{
		LowFat:     true,
		CheckReads: true,
		SizeCheck:  true,
		Elim:       true,
		Batch:      true,
		Merge:      true,
		ElimDom:    true,
	}
}

// Report summarizes an instrumentation run.
type Report struct {
	Operands      int // memory operands considered
	Eliminated    int // removed by (syntactic) check elimination
	ElimDominated int // removed as redundant under a dominating check
	SkippedReads  int // skipped because CheckReads is off
	Instrumented  int // operands receiving a check of their own
	Checks        int // emitted check records (after merging)
	Batches       int // trampolines
	MergedAway    int // checks saved by merging
	FullChecks    int // checks with the combined lowfat+redzone mode
	Rewrite       e9.Stats
	FailedSites   int // operands whose patch failed (left unprotected)

	// Liveness-driven trampoline specialization totals: registers the
	// emitted trampolines save (sum over trampolines) and how many of
	// them must preserve the flags.
	LiveRegsSaved  int
	LiveFlagsSaved int

	// Indirect-flow recovery outcome on marker-built inputs: resolved
	// indirect jump sites (table or landing-pad-set) and paired RETs.
	IndirectResolved int
	IndirectRets     int
}

// Publish exports the instrumentation report as counters in reg (no-op
// when reg is nil), including the embedded rewriting statistics.
func (r *Report) Publish(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("harden.operands").Add(uint64(r.Operands))
	reg.Counter("harden.eliminated").Add(uint64(r.Eliminated))
	reg.Counter("harden.reads.skipped").Add(uint64(r.SkippedReads))
	reg.Counter("harden.instrumented").Add(uint64(r.Instrumented))
	reg.Counter("harden.checks").Add(uint64(r.Checks))
	reg.Counter("harden.batches").Add(uint64(r.Batches))
	reg.Counter("harden.merged.away").Add(uint64(r.MergedAway))
	reg.Counter("harden.checks.full").Add(uint64(r.FullChecks))
	reg.Counter("harden.sites.failed").Add(uint64(r.FailedSites))
	reg.Counter("harden.elim.dom").Add(uint64(r.ElimDominated))
	reg.Counter("harden.liveness.regs").Add(uint64(r.LiveRegsSaved))
	reg.Counter("harden.liveness.flags").Add(uint64(r.LiveFlagsSaved))
	reg.Counter("harden.indirect.resolved").Add(uint64(r.IndirectResolved))
	reg.Counter("harden.indirect.rets").Add(uint64(r.IndirectRets))
	r.Rewrite.Publish(reg)
}

// String renders a human-readable summary.
func (r *Report) String() string {
	return fmt.Sprintf(
		"operands %d (eliminated %d, reads skipped %d) → checks %d in %d trampolines "+
			"(merged away %d, full %d) tactics T1=%d T2=%d T3=%d tramp=%dB",
		r.Operands, r.Eliminated, r.SkippedReads, r.Checks, r.Batches,
		r.MergedAway, r.FullChecks,
		r.Rewrite.T1, r.Rewrite.T2, r.Rewrite.T3, r.Rewrite.TrampBytes)
}

// Eliminable implements check elimination (paper §6): a memory operand
// that provably cannot reach low-fat heap memory needs no check. The rule:
// no index register, and either no base register (with an absolute
// displacement outside the heap range), or a base register that is %rip
// or %rsp (code and stack are ≫2 GB away from the heap regions under the
// standard layout).
func Eliminable(m isa.Mem) bool {
	if m.Index != isa.RegNone {
		return false
	}
	switch m.Base {
	case isa.RegNone:
		addr := uint64(int64(m.Disp))
		return addr < lowfat.HeapLow || addr >= lowfat.HeapHigh
	case isa.RIP, isa.RSP:
		// ±2 GB displacement from text/stack cannot reach the heap.
		return true
	}
	return false
}

// site is an operand selected for checking.
type site struct {
	idx   int // instruction index
	addr  uint64
	inst  *isa.Inst
	mode  rtlib.Mode
	write bool
}

// decision is the site-selection outcome for one instruction.
type decision uint8

const (
	noOperand     decision = iota // no memory operand
	skippedRead                   // a read, and CheckReads is off
	elimSyntactic                 // Eliminable: cannot reach the heap
	elimDominated                 // covered by a dominating check
	checked                       // receives a check
)

// selection is the outcome of site selection: one decision per
// instruction, the site of every operand pass A selected (checked or
// later dominated), and each dominating provider's eliminated dependents.
type selection struct {
	decision []decision
	sites    map[int]*site
	elimBy   map[int][]int // provider inst → eliminated dependents
}

// selectSites runs site selection over prog: pass A picks the operands
// to check and decides their mode, pass A' drops the ones a dominating
// check covers. df is needed only when opt.ElimDom is set without
// opt.Profile.
func selectSites(prog *cfg.Program, df *cfg.Dataflow, opt Options) *selection {
	sel := &selection{
		decision: make([]decision, len(prog.Insts)),
		sites:    make(map[int]*site),
		elimBy:   make(map[int][]int),
	}

	// Pass A: select sites and decide their check mode.
	for i := range prog.Insts {
		di := &prog.Insts[i]
		in := &di.Inst
		switch {
		case !in.IsMemAccess():
			continue
		case !opt.CheckReads && !in.Writes():
			sel.decision[i] = skippedRead
			continue
		case opt.Elim && Eliminable(in.Mem):
			sel.decision[i] = elimSyntactic
			continue
		}
		mode := rtlib.ModeRedzone
		switch {
		case opt.Profile:
			mode = rtlib.ModeProfile
		case opt.LowFat && (opt.AllowList == nil || opt.AllowList[di.Addr]):
			mode = rtlib.ModeFull
		}
		sel.sites[i] = &site{idx: i, addr: di.Addr, inst: in, mode: mode,
			write: in.Writes()}
		sel.decision[i] = checked
	}

	// Pass A': dominator-based redundant-check elimination. A site whose
	// address shape, mode and span are covered by an available dominating
	// check is dropped; the provider protects it. Skipped in Profile
	// mode (per-site execution statistics must stay complete). Under
	// AbortOnError the guest-visible detections are identical: the
	// provider executes first on every path and fails on a superset of
	// the dropped check's failures.
	if !opt.ElimDom || opt.Profile {
		return sel
	}
	var cands []cfg.CheckSite
	for i, d := range sel.decision {
		if d != checked {
			continue
		}
		s := sel.sites[i]
		if s.inst.Mem.Base == isa.RIP {
			continue // PC-relative shapes never repeat
		}
		lo := int64(s.inst.Mem.Disp)
		cands = append(cands, cfg.CheckSite{
			Inst: i, Mode: uint8(s.mode),
			Lo: lo, Hi: lo + int64(s.inst.MemWidth()),
		})
	}
	for i, w := range df.Redundant(cands) {
		sel.decision[i] = elimDominated
		sel.elimBy[w] = append(sel.elimBy[w], i)
	}
	return sel
}

// Harden instruments bin according to opt, returning the hardened binary
// and a report. The input binary is not modified. Hardening an
// already-hardened binary is rejected (double instrumentation would
// install checks on trampoline code and re-patch patched sites).
func Harden(bin *relf.Binary, opt Options) (*relf.Binary, *Report, error) {
	if bin.Section(rtlib.SitesSection) != nil {
		return nil, nil, fmt.Errorf("redfat: binary is already instrumented")
	}
	if opt.MaxBatch < 0 || opt.MaxBatch > math.MaxUint16 {
		return nil, nil, fmt.Errorf("redfat: MaxBatch %d outside [0, %d]", opt.MaxBatch, math.MaxUint16)
	}
	if opt.MaxBatch == 0 {
		opt.MaxBatch = 8
	}
	rw, err := e9.New(bin)
	if err != nil {
		return nil, nil, err
	}
	prog := rw.Prog
	rep := &Report{}

	// Whole-CFG dataflow engine: needed for dominator-based check
	// elimination and for the global liveness trampoline specialization.
	var df *cfg.Dataflow
	if (opt.ElimDom && !opt.Profile) || (!opt.NoClobberSpec && !opt.LocalLiveness) {
		df = cfg.NewDataflowOpts(prog, cfg.GraphOptions{NoIndirect: opt.NoIndirect})
		if ind := df.Graph.Indirect; ind != nil {
			for _, r := range ind.Resolved {
				if r.Kind == cfg.ResolvedRet {
					rep.IndirectRets++
				} else {
					rep.IndirectResolved++
				}
			}
		}
	}

	sel := selectSites(prog, df, opt)
	siteOf := sel.sites
	want := make([]bool, len(prog.Insts))
	for i, d := range sel.decision {
		if d != noOperand {
			rep.Operands++
		}
		switch d {
		case skippedRead:
			rep.SkippedReads++
		case elimSyntactic:
			rep.Eliminated++
		case elimDominated:
			rep.ElimDominated++
		case checked:
			want[i] = true
			rep.Instrumented++
		}
	}

	// Pass B: group sites into batches.
	var batches []cfg.Batch
	if opt.Batch {
		batches = prog.Batches(func(i int) bool { return want[i] }, opt.MaxBatch)
	} else {
		for i := range prog.Insts {
			if want[i] {
				batches = append(batches, cfg.Batch{Members: []int{i}})
			}
		}
	}

	// Reserve all batch heads so byte stealing never swallows one.
	for _, b := range batches {
		rw.Reserve(prog.Insts[b.Members[0]].Addr)
	}

	checkIdx := rw.Binary().ImportIndex(rtlib.CheckImport)
	var checks []rtlib.Check

	// clobberSpec computes the trampoline prologue requirements at a
	// batch head from the selected liveness analysis.
	clobberSpec := func(head int) (int, bool) {
		savedRegs, saveFlags := 4, true
		if opt.NoClobberSpec {
			return savedRegs, saveFlags
		}
		var dead isa.RegSet
		var flagsDead bool
		if df != nil && !opt.LocalLiveness {
			dead = df.DeadRegsAt(head)
			flagsDead = df.FlagsDeadAt(head)
		} else {
			dead = prog.DeadRegsAt(head)
			flagsDead = prog.FlagsDeadAt(head)
		}
		if d := dead.Count(); d < savedRegs {
			savedRegs -= d
		} else {
			savedRegs = 0
		}
		return savedRegs, !flagsDead
	}

	// instrument emits the checks for one batch and patches its head.
	instrument := func(members []int) error {
		head := members[0]
		savedRegs, saveFlags := clobberSpec(head)
		groups := mergeGroups(members, siteOf, opt.Merge)
		var payload []isa.Inst
		for gi, g := range groups {
			c := buildCheck(prog, g, siteOf, opt)
			c.Leader = gi == 0
			c.SavedRegs = uint8(savedRegs)
			c.SaveFlags = saveFlags
			siteIndex := uint32(len(checks))
			checks = append(checks, c)
			if c.Mode == rtlib.ModeFull {
				rep.FullChecks++
			}
			rep.MergedAway += int(c.Merged) - 1
			payload = append(payload, isa.Inst{
				Op: isa.RTCALL, Form: isa.FI,
				Imm: vm.RTCallImm(checkIdx, siteIndex),
			})
		}
		if err := rw.Instrument(head, payload); err != nil {
			// Drop this batch's checks again; the caller decides how to
			// account for the unprotected members.
			checks = checks[:len(checks)-len(groups)]
			return err
		}
		rep.Batches++
		rep.LiveRegsSaved += savedRegs
		if saveFlags {
			rep.LiveFlagsSaved++
		}
		return nil
	}

	// Pass C: emit checks (merging within each batch) and patch.
	failed := make(map[int]bool) // member insts of batches that failed to patch
	var unprot []uint64          // operand addresses left unprotected
	for _, b := range batches {
		if err := instrument(b.Members); err != nil {
			// Leave this batch unprotected rather than fail the whole
			// rewrite.
			rep.FailedSites += len(b.Members)
			for _, m := range b.Members {
				failed[m] = true
				unprot = append(unprot, prog.Insts[m].Addr)
			}
		}
	}

	// Repair round: a site eliminated under a dominating check whose
	// batch failed to patch would be silently unprotected. Re-instrument
	// such dependents individually (their own bytes were never reserved,
	// so this is best-effort; failures are reported as unprotected).
	var repair []int
	for w, deps := range sel.elimBy {
		if failed[w] {
			repair = append(repair, deps...)
		}
	}
	sort.Ints(repair)
	for _, i := range repair {
		s := siteOf[i]
		if err := instrument([]int{i}); err != nil {
			rep.FailedSites++
			unprot = append(unprot, s.addr)
			continue
		}
		rep.ElimDominated--
		rep.Instrumented++
	}
	rep.Checks = len(checks)

	hard, err := rw.Finalize()
	if err != nil {
		return nil, nil, err
	}
	hard.AddSection(&relf.Section{
		Name: rtlib.SitesSection, Kind: relf.SecMeta,
		Data: rtlib.EncodeSites(checks),
	})
	hard.AddSection(&relf.Section{
		Name: ConfigSection, Kind: relf.SecMeta,
		Data: EncodeConfig(opt),
	})
	if len(unprot) > 0 {
		m := make(map[uint64]uint64, len(unprot))
		for _, a := range unprot {
			m[a] = 0
		}
		hard.AddSection(&relf.Section{
			Name: UnprotSection, Kind: relf.SecMeta,
			Data: relf.EncodePatchTable(m),
		})
	}
	rep.Rewrite = rw.Stats()
	return hard, rep, nil
}

// mergeKey identifies operands that may merge: same segment, base, index,
// scale and check mode (paper §6, "Check merging").
type mergeKey struct {
	seg         isa.Seg
	base, index isa.Reg
	scale       uint8
	mode        rtlib.Mode
	uniq        int // nonzero forces a singleton group (RIP-relative operands)
}

// mergeGroups partitions batch members into mergeable groups, preserving
// program order of group leaders.
func mergeGroups(members []int, siteOf map[int]*site, merge bool) [][]int {
	if !merge {
		out := make([][]int, 0, len(members))
		for _, m := range members {
			out = append(out, []int{m})
		}
		return out
	}
	var order []mergeKey
	byKey := make(map[mergeKey][]int)
	for _, m := range members {
		s := siteOf[m]
		k := mergeKey{
			seg:   s.inst.Mem.Seg,
			base:  s.inst.Mem.Base,
			index: s.inst.Mem.Index,
			scale: s.inst.Mem.Scale,
			mode:  s.mode,
		}
		if s.inst.Mem.Base == isa.RIP {
			// RIP-relative displacements are relative to different
			// instruction addresses; do not merge them.
			k.uniq = m + 1
		}
		if _, seen := byKey[k]; !seen {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], m)
	}
	out := make([][]int, 0, len(order))
	for _, k := range order {
		out = append(out, byKey[k])
	}
	return out
}

// buildCheck constructs the check record for a merge group.
func buildCheck(prog *cfg.Program, group []int, siteOf map[int]*site, opt Options) rtlib.Check {
	first := siteOf[group[0]]
	c := rtlib.Check{
		PC:          first.addr,
		Mode:        first.mode,
		Operand:     first.inst.Mem,
		NoSizeCheck: !opt.SizeCheck,
		Merged:      uint16(len(group)),
	}
	if first.inst.Mem.Base == isa.RIP {
		c.RipNext = first.addr + uint64(first.inst.Len)
	}
	minDisp := first.inst.Mem.Disp
	maxEnd := int64(first.inst.Mem.Disp) + int64(first.inst.MemWidth())
	for _, m := range group {
		s := siteOf[m]
		if s.write {
			c.Write = true
		}
		d := s.inst.Mem.Disp
		if d < minDisp {
			minDisp = d
		}
		if end := int64(d) + int64(s.inst.MemWidth()); end > maxEnd {
			maxEnd = end
		}
	}
	c.Operand.Disp = minDisp
	c.Len = uint32(maxEnd - int64(minDisp))
	return c
}
