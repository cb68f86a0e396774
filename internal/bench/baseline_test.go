package bench

import (
	"strings"
	"testing"
)

func trajResults(merge, coverage float64) *Results {
	return &Results{
		SchemaVersion: SchemaVersion,
		Scale:         0.02,
		Table1: []*Table1Row{
			{Name: "bzip2", Coverage: coverage, Merge: merge},
		},
		Table1Summary: &Table1Summary{MeanCoverage: coverage, Merge: merge,
			Unopt: 2, Elim: 1.8, Batch: 1.5, NoSize: 1.4, NoReads: 1.2, Memcheck: 20},
	}
}

func TestCompareFlagsDirectionalRegressions(t *testing.T) {
	base := trajResults(1.5, 0.9)
	// Overhead up 20% and coverage down 20%: both regress at the default
	// ±10% threshold.
	curr := trajResults(1.8, 0.72)
	traj := Compare(curr, base, 0)
	regs := traj.Regressions()
	if len(regs) != 3 { // summary merge, per-benchmark merge, mean_coverage
		t.Fatalf("want 3 regressions, got %d: %+v", len(regs), regs)
	}
	for _, d := range regs {
		switch {
		case d.Metric == "mean_coverage" && d.LowerIsBetter:
			t.Errorf("coverage must be higher-is-better: %+v", d)
		case strings.Contains(d.Metric, "merge") && !d.LowerIsBetter:
			t.Errorf("overhead must be lower-is-better: %+v", d)
		}
	}

	// Improvements in the same magnitude do not regress.
	better := trajResults(1.2, 0.99)
	if regs := Compare(better, base, 0).Regressions(); len(regs) != 0 {
		t.Fatalf("improvement flagged as regression: %+v", regs)
	}

	// Identical runs diff to zero everywhere.
	same := Compare(trajResults(1.5, 0.9), base, 0)
	for _, d := range same.Deltas {
		if d.Rel != 0 || d.Regress {
			t.Fatalf("identical runs produced nonzero delta: %+v", d)
		}
	}
}

// TestCompareCoversEverySummaryColumn checks that -baseline compares the
// +dom and +ind geomeans like every other Table 1 column, and that a
// column an older baseline file lacks (decoded as 0) becomes a note
// rather than a regression.
func TestCompareCoversEverySummaryColumn(t *testing.T) {
	base := trajResults(1.5, 0.9)
	base.Table1Summary.Dom, base.Table1Summary.Ind = 1.5, 1.4
	curr := trajResults(1.5, 0.9)
	curr.Table1Summary.Dom, curr.Table1Summary.Ind = 1.8, 1.4
	regs := Compare(curr, base, 0).Regressions()
	if len(regs) != 1 || regs[0].Metric != "dom" || !regs[0].LowerIsBetter {
		t.Fatalf("want one lower-is-better dom regression, got %+v", regs)
	}
	sawInd := false
	for _, d := range Compare(curr, base, 0).Deltas {
		sawInd = sawInd || d.Metric == "ind"
	}
	if !sawInd {
		t.Error("ind column not compared")
	}

	base.Table1Summary.Dom = 0 // a baseline written before the dom column
	traj := Compare(curr, base, 0)
	if regs := traj.Regressions(); len(regs) != 0 {
		t.Fatalf("missing baseline column flagged as regression: %+v", regs)
	}
	sawNote := false
	for _, n := range traj.Notes {
		sawNote = sawNote || strings.Contains(n, "dom absent from baseline")
	}
	if !sawNote {
		t.Errorf("missing baseline column not noted: %v", traj.Notes)
	}
}

func TestCompareNotesScaleMismatchAndOneSidedSections(t *testing.T) {
	base := trajResults(1.5, 0.9)
	curr := trajResults(1.5, 0.9)
	curr.Scale = 1.0
	curr.Figure8 = &Figure8Result{GeoMean: 1.3}
	traj := Compare(curr, base, 0)
	var sawScale, sawFig8 bool
	for _, n := range traj.Notes {
		if strings.Contains(n, "scale differs") {
			sawScale = true
		}
		if strings.Contains(n, "figure8") && strings.Contains(n, "current run only") {
			sawFig8 = true
		}
	}
	if !sawScale || !sawFig8 {
		t.Fatalf("missing notes (scale=%v figure8=%v): %v", sawScale, sawFig8, traj.Notes)
	}
}

func TestParseResultsRejectsWrongSchema(t *testing.T) {
	if _, err := ParseResults([]byte(`{"scale": 1}`)); err == nil ||
		!strings.Contains(err.Error(), "schema_version") {
		t.Fatalf("missing schema accepted: %v", err)
	}
	if _, err := ParseResults([]byte(`{"schema_version": 999}`)); err == nil ||
		!strings.Contains(err.Error(), "schema_version") {
		t.Fatalf("future schema accepted: %v", err)
	}
	if _, err := ParseResults([]byte(`not json`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	r := trajResults(1.5, 0.9)
	data, err := r.MarshalJSONBytes()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseResults(data)
	if err != nil {
		t.Fatalf("round-trip rejected: %v", err)
	}
	if got.Table1Summary == nil || got.Table1Summary.Merge != 1.5 {
		t.Fatalf("round-trip lost data: %+v", got.Table1Summary)
	}
}

func TestTrajectoryRender(t *testing.T) {
	base := trajResults(1.5, 0.9)
	curr := trajResults(1.8, 0.9)
	var sb strings.Builder
	if err := Compare(curr, base, 0).Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "REGRESS") {
		t.Errorf("regression not flagged:\n%s", out)
	}
	if !strings.Contains(out, "regression(s) beyond") {
		t.Errorf("summary line missing:\n%s", out)
	}
}
