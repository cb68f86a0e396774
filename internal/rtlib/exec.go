package rtlib

import (
	"fmt"
	"io"

	"redfat/internal/cfg"
	"redfat/internal/heap"
	"redfat/internal/isa"
	"redfat/internal/lowfat"
	"redfat/internal/mem"
	"redfat/internal/obs"
	"redfat/internal/redzone"
	"redfat/internal/relf"
	"redfat/internal/telemetry"
	"redfat/internal/vm"
)

// RunConfig is the one set of run knobs, shared by every runner here,
// by memcheck, by redfat.RunOptions and by the runpack RunSpec (both are
// aliases of it). Its JSON view is the RunSpec that run packs record and
// replay: every guest-visible or tier knob carries a JSON key, and the
// host-only observers (json:"-") are never replayed — they cannot change
// guest cycles, detections or output. The flag and usage tags declare
// rfvm's flag for a knob (see internal/knob).
type RunConfig struct {
	// Input is the program's input vector (consumed by rf_input).
	Input []uint64 `json:"input,omitempty"`

	// Hardened and Memcheck select the runner in redfat.Run: the RedFat
	// runtime (required for binaries produced by Harden) or the
	// Valgrind-Memcheck model; neither means the baseline allocator. The
	// runners in this package ignore them.
	Hardened bool `json:"hardened,omitempty" flag:"hardened" usage:"run with the RedFat runtime (libredfat model)"`
	Memcheck bool `json:"memcheck,omitempty" flag:"memcheck" usage:"run under the Memcheck model"`

	// AbortOnError stops at the first detected memory error (hardening
	// deployments); otherwise errors are recorded and execution
	// continues. Baseline runs ignore it.
	AbortOnError bool `json:"abort,omitempty" flag:"abort" usage:"abort on the first detected memory error"`

	// MaxCycles bounds execution (0 = 2e9, or 20e9 under Memcheck).
	MaxCycles uint64 `json:"max_cycles,omitempty" flag:"max" usage:"cycle budget (0 = default)"`

	// Forensics enables allocation-site backtrace capture in the bound
	// allocator and guest-backtrace capture on trapped memory errors,
	// feeding the forensic report builder. Guest cycle counts are
	// bit-identical with it on or off.
	Forensics bool `json:"forensics,omitempty" flag:"forensics" usage:"resolve detected errors into symbolized forensic reports"`

	// NoJIT disables the superblock tier (compiled traces over hot
	// chained blocks), pinning execution to the block interpreter. Guest
	// results are identical either way; JIT vs NoJIT is the engines'
	// bit-identity reference pair.
	NoJIT bool `json:"no_jit,omitempty" flag:"nojit" usage:"disable the superblock trace tier (host A/B validation)"`

	// NoIndirect disables the recovered-edge soundness monitor that is
	// otherwise armed for marker-built binaries (host-side telemetry:
	// vm.indirect.escape.count). It does NOT disable the landing-pad
	// enforcement itself — that is binary semantics, owned by the binary
	// via its .rf.jt marker, and must not vary with an ablation knob.
	NoIndirect bool `json:"no_indirect,omitempty" flag:"noindirect" usage:"disable the recovered-edge monitor for marker-built binaries (host A/B validation)"`

	// JITThreshold overrides the block-hotness threshold at which
	// traces are compiled (0 keeps vm.DefaultJITThreshold).
	JITThreshold uint64 `json:"jit_threshold,omitempty" flag:"jit-threshold" usage:"block hotness before trace compilation (0 = default)"`

	// NoLibcCheck disables the hardened libc span intrinsics (and, under
	// Memcheck, its libc interposition), reverting the modelled libc to
	// its unchecked baseline bindings. Guest-visible: span checks charge
	// cycles and produce detections.
	NoLibcCheck bool `json:"no_libc_check,omitempty" flag:"nolibccheck" usage:"disable the hardened libc span intrinsics (ablation; guest-visible)"`

	// QuarantineBytes overrides the free quarantine budget (-1 disables
	// the quarantine entirely, 0 keeps the default). Hardened runs only.
	QuarantineBytes int64 `json:"quarantine_bytes,omitempty" flag:"quarantine" usage:"free-quarantine byte budget (-1 disables, 0 default; hardened runs)"`

	// Canary arms canary-poisoned redzones: allocation slack is filled
	// with redzone.CanaryByte, verified on free and on span-check
	// crossings (libredfat's REDFAT_CANARY mode). Hardened runs only.
	Canary bool `json:"canary,omitempty" flag:"canary" usage:"arm canary-poisoned redzones (verified on free and span checks; hardened runs)"`

	// UnderAllocEvery, when >0, under-allocates roughly one in every N
	// heap objects by a single byte (libredfat's REDFAT_TEST self-test
	// mode, deterministic via vm.NextRand). Induced detections carry a
	// "self-test under-allocation" note tag. Hardened runs only.
	UnderAllocEvery uint64 `json:"under_alloc_every,omitempty" flag:"underalloc" usage:"self-test: under-allocate ~1 in N heap objects by one byte (0 = off; hardened runs)"`

	// RandomizeHeap enables the low-fat allocator's placement
	// randomization (the basic heap randomization paper §8 mentions).
	RandomizeHeap bool `json:"randomize_heap,omitempty"`

	// ForensicsDepth bounds the captured backtraces (0 = default 8).
	ForensicsDepth int `json:"forensics_depth,omitempty"`

	// Trace, when set, receives one line per executed instruction
	// (address and disassembly), up to TraceLimit lines (0 = 10000).
	Trace      io.Writer `json:"-"`
	TraceLimit int       `json:"-"`

	// Metrics, when set, receives counters/gauges/histograms from every
	// instrumented layer (VM dispatch, allocators, checks). Telemetry is
	// host-side only: it never alters guest cycle accounting.
	Metrics *telemetry.Registry `json:"-"`

	// EventTrace, when set, records execution events (instruction
	// retirement, trampoline dispatch, check outcomes, alloc/free) into
	// the bounded ring buffer.
	EventTrace *telemetry.Tracer `json:"-"`

	// IndirectHook, when set, observes every indirect JMP/CALL transfer
	// (pc → target) before it commits. Host-side observability only —
	// the differential edge oracle uses it to compare actual transfers
	// against the statically recovered target sets.
	IndirectHook func(pc, target uint64) `json:"-"`

	// Profiler, when set, samples guest execution by cycle budget from
	// the dispatch loop (see vm.GuestProfiler). Host-side only.
	Profiler *vm.GuestProfiler `json:"-"`

	// Flight, when set, is the always-on flight recorder fed by the VM
	// and guest memory (dispatch events, deopts with reason, TLB flushes,
	// check failures, budget aborts). Unlike Profiler and the hooks it
	// never disables the superblock tier, and the ring's content is
	// guest-deterministic. Host-side only.
	Flight *obs.Flight `json:"-"`
}

// defaultMaxCycles is the cycle budget of baseline and hardened runs
// when MaxCycles is 0.
const defaultMaxCycles = 2_000_000_000

// NewMachine builds the guest memory and VM for one run and wires the
// knobs every runner shares: input, cycle budget (defaultBudget when
// MaxCycles is 0), superblock-tier knobs, flight recorder, execution
// trace and telemetry. What differs between runners — allocator,
// bindings, AbortOnError, indirect-flow enforcement, forensics — stays
// with the runner. Exported for runner packages (memcheck).
func (c *RunConfig) NewMachine(defaultBudget uint64) (*vm.VM, *mem.Memory) {
	m := mem.New()
	v := vm.New(m)
	v.Input = c.Input
	v.MaxCycles = c.MaxCycles
	if v.MaxCycles == 0 {
		v.MaxCycles = defaultBudget
	}
	v.NoJIT = c.NoJIT
	v.JITThreshold = c.JITThreshold
	v.Flight, m.Flight = c.Flight, c.Flight
	c.attachTrace(v)
	if c.Metrics != nil || c.EventTrace != nil {
		v.AttachTelemetry(c.Metrics, c.EventTrace)
	}
	return v, m
}

// attachIndirect arms the CET-style landing-pad machinery when every
// module carries the .rf.jt marker: indirect jumps/calls to non-LPAD
// bytes fault (binary semantics, independent of any knob), and — unless
// NoIndirect — the static recovery is re-run so the VM can count dynamic
// transfers escaping the recovered target sets (host-side telemetry).
// Mixed marker/legacy module sets leave enforcement off, like a legacy
// DSO disabling process-wide IBT.
func (c *RunConfig) attachIndirect(v *vm.VM, bins ...*relf.Binary) {
	v.IndirectHook = c.IndirectHook
	for _, b := range bins {
		if !cfg.MarkerBuilt(b) {
			return
		}
	}
	v.LPADCheck = true
	if c.NoIndirect {
		return
	}
	targets := make(map[uint64]map[uint64]bool)
	for _, b := range bins {
		if b.PIC {
			continue // static addresses differ from the load bias
		}
		p, err := cfg.Disassemble(b)
		if err != nil {
			continue // e.g. partially patched text: monitor stays off
		}
		g := cfg.NewGraph(p)
		if g.Indirect == nil {
			continue
		}
		for addr, set := range g.Indirect.TargetSets() {
			targets[addr] = set
		}
	}
	if len(targets) > 0 {
		v.IndirectTargets = targets
	}
}

// defaultForensicsDepth is the backtrace depth used when Forensics is on
// and no explicit depth is configured.
const defaultForensicsDepth = 8

// siteTracker is implemented by allocators that can record forensic
// allocation sites (both heaps, and wrappers that forward to one).
type siteTracker interface{ EnableSiteTracking(depth int) }

// AttachForensics wires the profiler and forensic capture into a VM and
// its allocator. The allocator handle is parked on the VM so report
// builders can resolve faulting addresses after the run. Exported for
// runner packages (memcheck) that build their own VM.
func (c *RunConfig) AttachForensics(v *vm.VM, alloc Allocator) {
	v.Allocator = alloc
	v.Profiler = c.Profiler
	if !c.Forensics {
		return
	}
	depth := c.ForensicsDepth
	if depth <= 0 {
		depth = defaultForensicsDepth
	}
	v.ErrorStackDepth = depth
	if t, ok := alloc.(siteTracker); ok {
		t.EnableSiteTracking(depth)
	}
}

// attachTrace installs the execution tracer on v if configured.
func (c *RunConfig) attachTrace(v *vm.VM) {
	if c.Trace == nil {
		return
	}
	limit := c.TraceLimit
	if limit == 0 {
		limit = 10000
	}
	n := 0
	v.TraceHook = func(v *vm.VM, pc uint64, in *isa.Inst) {
		if n >= limit {
			return
		}
		n++
		fmt.Fprintf(c.Trace, "%10x: %s\n", pc, in.String())
	}
}

// newHeap builds the RedFat heap for a hardened run. The VM supplies the
// deterministic random stream for the under-allocation self-test mode.
func (c *RunConfig) newHeap(v *vm.VM, m *mem.Memory) *redzone.Heap {
	lf := lowfat.New(m)
	lf.Randomize = c.RandomizeHeap
	h := redzone.NewHeap(lf, m)
	switch {
	case c.QuarantineBytes < 0:
		h.QuarantineBytes = 0
	case c.QuarantineBytes > 0:
		h.QuarantineBytes = uint64(c.QuarantineBytes)
	}
	h.Canary = c.Canary
	if c.UnderAllocEvery > 0 {
		h.UnderAllocEvery = c.UnderAllocEvery
		h.Rand = v.NextRand
	}
	h.AttachTelemetry(c.Metrics)
	return h
}

// RunBaseline executes an uninstrumented binary with the glibc-style
// allocator. Returns the VM after execution (inspect ExitCode, Cycles,
// Output) and the run error, if any. AbortOnError is ignored: the
// baseline allocator detects nothing.
func RunBaseline(bin *relf.Binary, cfg RunConfig) (*vm.VM, error) {
	v, m := cfg.NewMachine(defaultMaxCycles)
	cfg.attachIndirect(v, bin)
	h := heap.New(m)
	h.AttachTelemetry(cfg.Metrics)
	cfg.AttachForensics(v, h)
	env := LibC(h, m)
	if err := v.Load(bin, env); err != nil {
		return v, err
	}
	return v, v.Run()
}

// RunHardened executes a RedFat-hardened binary: the low-fat allocator
// with the redzone wrapper is interposed over malloc (the LD_PRELOAD
// model) and the check routine is bound to the site table. It returns the
// VM and the runtime (for profiling counters and coverage).
func RunHardened(bin *relf.Binary, cfg RunConfig) (*vm.VM, *Runtime, error) {
	v, m := cfg.NewMachine(defaultMaxCycles)
	v.AbortOnError = cfg.AbortOnError
	cfg.attachIndirect(v, bin)
	h := cfg.newHeap(v, m)
	cfg.AttachForensics(v, h)
	rt, err := NewRuntime(bin, h)
	if err != nil {
		return v, nil, err
	}
	rt.AttachTelemetry(cfg.Metrics, cfg.EventTrace)
	InstallInlineChecks(v, map[*relf.Binary]*Runtime{bin: rt})
	env := LibC(h, m)
	if !cfg.NoLibcCheck {
		env = Merge(env, SpanLibC(h, m))
	}
	env = Merge(env, rt.Bindings())
	if err := v.Load(bin, env); err != nil {
		return v, rt, err
	}
	err = v.Run()
	return v, rt, err
}

// RunLinked executes a dynamically linked program: the main executable
// plus shared-object dependencies, loaded in order (paper §7.4). Each
// module may or may not have been instrumented by RedFat — only the
// instrumented ones are protected, which is exactly the semantics of
// statically rewriting individual ELF files. The process-wide allocator
// is the RedFat heap (the LD_PRELOAD interposition affects every module).
//
// The returned runtimes parallel the instrumented modules, libraries
// first, main last (if instrumented).
func RunLinked(main *relf.Binary, libs []*relf.Binary, cfg RunConfig) (*vm.VM, []*Runtime, error) {
	v, m := cfg.NewMachine(defaultMaxCycles)
	v.AbortOnError = cfg.AbortOnError
	cfg.attachIndirect(v, append([]*relf.Binary{main}, libs...)...)
	h := cfg.newHeap(v, m)
	cfg.AttachForensics(v, h)
	libc := LibC(h, m)
	if !cfg.NoLibcCheck {
		libc = Merge(libc, SpanLibC(h, m))
	}

	var rts []*Runtime
	mods := make(map[*relf.Binary]*Runtime)
	envFor := func(bin *relf.Binary) (vm.Bindings, error) {
		if bin.Section(SitesSection) == nil {
			return libc, nil // uninstrumented module: libc only
		}
		rt, err := NewRuntime(bin, h)
		if err != nil {
			return nil, err
		}
		rt.AttachTelemetry(cfg.Metrics, cfg.EventTrace)
		rts = append(rts, rt)
		mods[bin] = rt
		return Merge(libc, rt.Bindings()), nil
	}
	for _, lib := range libs {
		env, err := envFor(lib)
		if err != nil {
			return v, rts, err
		}
		if err := v.LoadLibrary(lib, env); err != nil {
			return v, rts, err
		}
	}
	env, err := envFor(main)
	if err != nil {
		return v, rts, err
	}
	if err := v.Load(main, env); err != nil {
		return v, rts, err
	}
	InstallInlineChecks(v, mods)
	err = v.Run()
	return v, rts, err
}
