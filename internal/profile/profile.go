// Package profile implements RedFat's profile-based false-positive
// mitigation (paper §5, Fig. 5):
//
//	Phase 1 (profiling): the binary is instrumented with a profiling
//	variant of the check and run against a test suite; memory operations
//	observed to always pass the LowFat component are collected into an
//	allow-list.
//
//	Phase 2 (production): the binary is re-instrumented, giving the full
//	(Redzone)+(LowFat) check to allow-listed operations and the
//	conservative (Redzone)-only check to everything else.
//
// The underlying hypothesis: each memory operation is always a false
// positive or never a false positive — anti-idioms like (array-K)[i] fail
// the LowFat check on every execution, while idiomatic accesses never do.
package profile

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"redfat/internal/redfat"
	"redfat/internal/relf"
	"redfat/internal/rtlib"
)

// AllowList is the set of instruction addresses whose memory accesses are
// deemed safe for full (Redzone)+(LowFat) checking.
type AllowList map[uint64]bool

// header identifies the on-disk allow-list format.
const header = "redfat-allowlist v1"

// Save writes the allow-list in a stable text format (one hex address per
// line, sorted).
func (a AllowList) Save(w io.Writer) error {
	addrs := make([]uint64, 0, len(a))
	for pc, ok := range a {
		if ok {
			addrs = append(addrs, pc)
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, header)
	for _, pc := range addrs {
		fmt.Fprintf(bw, "%#x\n", pc)
	}
	return bw.Flush()
}

// Load parses an allow-list written by Save.
func Load(r io.Reader) (AllowList, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() || strings.TrimSpace(sc.Text()) != header {
		return nil, fmt.Errorf("profile: bad allow-list header")
	}
	a := AllowList{}
	line := 1
	for sc.Scan() {
		line++
		txt := strings.TrimSpace(sc.Text())
		if txt == "" || strings.HasPrefix(txt, "#") {
			continue
		}
		pc, err := strconv.ParseUint(txt, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("profile: line %d: %v", line, err)
		}
		a[pc] = true
	}
	return a, sc.Err()
}

// siteVerdict accumulates observations for one instruction address across
// test-suite runs.
type siteVerdict struct {
	execs uint64
	fails uint64
}

// Profiler drives phase 1.
type Profiler struct {
	verdicts map[uint64]*siteVerdict
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{verdicts: make(map[uint64]*siteVerdict)}
}

// Accumulate folds one profiling run's per-site counters in.
func (p *Profiler) Accumulate(rt *rtlib.Runtime) {
	for i := range rt.Checks {
		st := rt.Stats[i]
		if st.Execs == 0 {
			continue
		}
		pc := rt.Checks[i].PC
		v := p.verdicts[pc]
		if v == nil {
			v = &siteVerdict{}
			p.verdicts[pc] = v
		}
		v.execs += st.Execs
		v.fails += st.LowFatFails
	}
}

// AllowList produces the phase-1 result: operations observed at least once
// that never failed the LowFat component.
func (p *Profiler) AllowList() AllowList {
	a := AllowList{}
	for pc, v := range p.verdicts {
		if v.execs > 0 && v.fails == 0 {
			a[pc] = true
		}
	}
	return a
}

// FlaggedSites returns the addresses the profiling phase identified as
// likely false positives (they failed the LowFat component at least once).
func (p *Profiler) FlaggedSites() []uint64 {
	var out []uint64
	for pc, v := range p.verdicts {
		if v.fails > 0 {
			out = append(out, pc)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PhaseOneOptions derives the Fig. 5 phase-1 instrumentation
// configuration from the production configuration: profiling mode, no
// merging (so verdicts are per original operand), read checking on (the
// allow-list should cover read sites even if production later drops read
// checks), and no allow-list.
func PhaseOneOptions(prod redfat.Options) redfat.Options {
	opt := prod
	opt.Profile = true
	opt.AllowList = nil
	opt.Merge = false
	opt.CheckReads = true
	return opt
}

// Run executes the full two-phase workflow of paper Fig. 5: instrument
// for profiling, run the test suite, generate the allow-list, and produce
// the production binary under prodOpt with that allow-list. It returns
// the hardened binary, the allow-list, and the production report.
func Run(orig *relf.Binary, suite []rtlib.RunConfig, prodOpt redfat.Options) (*relf.Binary, AllowList, *redfat.Report, error) {
	profBin, _, err := redfat.Harden(orig, PhaseOneOptions(prodOpt))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("profile: phase 1 instrumentation: %w", err)
	}
	p := NewProfiler()
	for i, cfg := range suite {
		cfg.AbortOnError = false // the profiling binary never aborts
		_, rt, err := rtlib.RunHardened(profBin, cfg)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("profile: test %d: %w", i, err)
		}
		p.Accumulate(rt)
	}
	allow := p.AllowList()

	opt := prodOpt
	opt.AllowList = allow
	opt.Profile = false
	hard, rep, err := redfat.Harden(orig, opt)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("profile: phase 2 instrumentation: %w", err)
	}
	return hard, allow, rep, nil
}
