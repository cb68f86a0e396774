package bench

import (
	"fmt"
	"io"
	"math"
)

// DefaultRegressThreshold is the noise band for trajectory comparisons:
// deltas within ±10% of the baseline are reported but not flagged. Guest
// cycles are deterministic, so at equal scale a genuine re-run diffs to
// zero; the band absorbs cross-revision drift from intentional changes.
const DefaultRegressThreshold = 0.10

// Delta is one tracked metric's movement between a baseline Results
// document and the current run.
type Delta struct {
	Section string  // which experiment the metric belongs to
	Metric  string  // metric name within the section
	Base    float64 // baseline value
	Curr    float64 // current value
	Rel     float64 // relative change (curr-base)/base
	// LowerIsBetter orients the regression test: overheads regress
	// upward, coverage and detection counts regress downward.
	LowerIsBetter bool
	Regress       bool // moved beyond the threshold in the bad direction
}

// Trajectory is the section-by-section comparison of two bench Results.
type Trajectory struct {
	Threshold float64
	Deltas    []Delta
	// Notes records comparability caveats (scale mismatch, sections or
	// rows present on only one side).
	Notes []string
}

// Regressions returns the deltas flagged beyond the threshold.
func (t *Trajectory) Regressions() []Delta {
	var out []Delta
	for _, d := range t.Deltas {
		if d.Regress {
			out = append(out, d)
		}
	}
	return out
}

// Compare diffs the current run against a baseline, metric by metric.
// Only sections present on both sides are compared; one-sided sections
// become notes. threshold ≤ 0 selects DefaultRegressThreshold.
func Compare(curr, base *Results, threshold float64) *Trajectory {
	if threshold <= 0 {
		threshold = DefaultRegressThreshold
	}
	t := &Trajectory{Threshold: threshold}
	if curr.Scale != base.Scale {
		t.note("scale differs (baseline %.3g, current %.3g): cycle-derived deltas are not comparable",
			base.Scale, curr.Scale)
	}
	t.compareTable1(curr, base)
	t.compareFalsePositives(curr, base)
	t.compareTable2("table2", curr.Table2, base.Table2)
	t.compareTable2("table2_extended", curr.Table2Extended, base.Table2Extended)
	t.compareFigure8(curr, base)
	return t
}

func (t *Trajectory) note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// add records one metric pair and applies the threshold test.
func (t *Trajectory) add(section, metric string, base, curr float64, lowerBetter bool) {
	d := Delta{Section: section, Metric: metric, Base: base, Curr: curr,
		LowerIsBetter: lowerBetter}
	switch {
	case base == curr:
		d.Rel = 0
	case base == 0:
		d.Rel = math.Copysign(1, curr)
	default:
		d.Rel = (curr - base) / base
	}
	bad := d.Rel
	if !lowerBetter {
		bad = -d.Rel
	}
	d.Regress = bad > t.Threshold
	t.Deltas = append(t.Deltas, d)
}

// oneSided notes a section present on only one side; returns true when
// the comparison must be skipped.
func (t *Trajectory) oneSided(section string, inCurr, inBase bool) bool {
	switch {
	case inCurr && !inBase:
		t.note("%s: present in current run only (baseline predates it or did not run it)", section)
	case !inCurr && inBase:
		t.note("%s: present in baseline only (current run did not run it)", section)
	}
	return !(inCurr && inBase)
}

func (t *Trajectory) compareTable1(curr, base *Results) {
	if t.oneSided("table1", curr.Table1Summary != nil, base.Table1Summary != nil) {
		return
	}
	cs, bs := curr.Table1Summary, base.Table1Summary
	for _, c := range []struct {
		name        string
		base, curr  float64
		lowerBetter bool
	}{
		{"mean_coverage", bs.MeanCoverage, cs.MeanCoverage, false},
		{"unopt", bs.Unopt, cs.Unopt, true},
		{"elim", bs.Elim, cs.Elim, true},
		{"batch", bs.Batch, cs.Batch, true},
		{"merge", bs.Merge, cs.Merge, true},
		{"dom", bs.Dom, cs.Dom, true},
		{"ind", bs.Ind, cs.Ind, true},
		{"nosize", bs.NoSize, cs.NoSize, true},
		{"noreads", bs.NoReads, cs.NoReads, true},
		{"memcheck", bs.Memcheck, cs.Memcheck, true},
	} {
		if c.base == 0 && c.curr != 0 {
			t.note("table1_summary: %s absent from baseline (it predates the column)", c.name)
			continue
		}
		t.add("table1_summary", c.name, c.base, c.curr, c.lowerBetter)
	}

	// Per-benchmark: the production configuration (merge column).
	baseRows := map[string]*Table1Row{}
	for _, r := range base.Table1 {
		baseRows[r.Name] = r
	}
	for _, r := range curr.Table1 {
		b, ok := baseRows[r.Name]
		if !ok {
			t.note("table1: %s has no baseline row", r.Name)
			continue
		}
		t.add("table1", r.Name, b.Merge, r.Merge, true)
		delete(baseRows, r.Name)
	}
	// Deterministic iteration: report leftovers via the current side's
	// ordering guarantee — walk base.Table1 slice, not the map.
	for _, r := range base.Table1 {
		if _, left := baseRows[r.Name]; left {
			t.note("table1: baseline row %s absent from current run", r.Name)
		}
	}
}

func (t *Trajectory) compareFalsePositives(curr, base *Results) {
	if t.oneSided("false_positives", curr.FalsePositives != nil, base.FalsePositives != nil) {
		return
	}
	sum := func(rows []FPRow) (n int) {
		for _, r := range rows {
			n += r.Count
		}
		return
	}
	t.add("false_positives", "total_sites", float64(sum(base.FalsePositives)),
		float64(sum(curr.FalsePositives)), true)
}

func (t *Trajectory) compareTable2(section string, curr, base []Table2Row) {
	if t.oneSided(section, curr != nil, base != nil) {
		return
	}
	sum := func(rows []Table2Row) (total, redfat, memcheck int) {
		for _, r := range rows {
			total += r.Total
			redfat += r.RedFat
			memcheck += r.Memcheck
		}
		return
	}
	bt, br, bm := sum(base)
	ct, cr, cm := sum(curr)
	t.add(section, "cases", float64(bt), float64(ct), false)
	t.add(section, "redfat_detected", float64(br), float64(cr), false)
	t.add(section, "memcheck_detected", float64(bm), float64(cm), false)
}

func (t *Trajectory) compareFigure8(curr, base *Results) {
	if t.oneSided("figure8", curr.Figure8 != nil, base.Figure8 != nil) {
		return
	}
	t.add("figure8", "geomean", base.Figure8.GeoMean, curr.Figure8.GeoMean, true)
}

// Render writes the trajectory as a text table, regressions flagged.
func (t *Trajectory) Render(w io.Writer) error {
	ew := &errWriter{w: w}
	ew.printf("%-16s %-18s %12s %12s %9s\n",
		"section", "metric", "baseline", "current", "delta")
	for _, d := range t.Deltas {
		flag := ""
		if d.Regress {
			flag = "  REGRESS"
		}
		ew.printf("%-16s %-18s %12.4g %12.4g %+8.1f%%%s\n",
			d.Section, d.Metric, d.Base, d.Curr, d.Rel*100, flag)
	}
	for _, n := range t.Notes {
		ew.printf("note: %s\n", n)
	}
	if n := len(t.Regressions()); n > 0 {
		ew.printf("%d regression(s) beyond ±%.1f%%\n", n, t.Threshold*100)
	} else {
		ew.printf("no regressions beyond ±%.1f%%\n", t.Threshold*100)
	}
	return ew.err
}

// errWriter accumulates the first write error so rendering stays linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
