package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestSummarize(t *testing.T) {
	rows := []*Table1Row{
		{Coverage: 0.5, Unopt: 2, Elim: 2, Batch: 2, Merge: 2, Dom: 2, NoSize: 2, NoReads: 2, Memcheck: 2},
		{Coverage: 1.0, Unopt: 8, Elim: 8, Batch: 8, Merge: 8, Dom: 8, NoSize: 8, NoReads: 8, Memcheck: 8},
	}
	s := Summarize(rows)
	if math.Abs(s.MeanCoverage-0.75) > 1e-9 {
		t.Errorf("mean coverage = %v, want 0.75", s.MeanCoverage)
	}
	if math.Abs(s.Merge-4) > 1e-9 { // geomean(2, 8) = 4
		t.Errorf("merge geomean = %v, want 4", s.Merge)
	}
	if math.Abs(s.Dom-4) > 1e-9 {
		t.Errorf("dom geomean = %v, want 4", s.Dom)
	}
}

// TestRenderTable1GeomeanMatchesSummarize checks that the rendered
// geomean row is the Summarize row, column for column.
func TestRenderTable1GeomeanMatchesSummarize(t *testing.T) {
	rows := []*Table1Row{
		{Name: "a", Coverage: 0.5, Unopt: 9, Elim: 7, Batch: 5, Merge: 4, Dom: 3.5, Ind: 3, NoSize: 2.5, NoReads: 1.5, Memcheck: 20},
		{Name: "b", Coverage: 1.0, Unopt: 4, Elim: 3, Batch: 2, Merge: 1.8, Dom: 1.7, Ind: 1.6, NoSize: 1.4, NoReads: 1.2, Memcheck: 10},
	}
	var buf bytes.Buffer
	renderTable1(rows, &buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	got := strings.Fields(lines[len(lines)-1])
	s := Summarize(rows)
	want := []string{"geomean", fmt.Sprintf("%.1f%%", 100*s.MeanCoverage)}
	for _, x := range []float64{s.Unopt, s.Elim, s.Batch, s.Merge, s.Dom, s.Ind, s.NoSize, s.NoReads, s.Memcheck} {
		want = append(want, fmt.Sprintf("%.2fx", x))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("geomean row %q, want %q", got, want)
	}
}

func TestResultsWriteJSON(t *testing.T) {
	summary := Summarize(nil)
	r := &Results{
		Scale: 0.5,
		Table1: []*Table1Row{{
			Name: "mcf", Coverage: 0.9, BaselineCycles: 1000,
			Unopt: 9.5, Merge: 2.5, ChecksumOK: true,
		}},
		Table1Summary: &summary,
		Table2:        []Table2Row{{ID: "CVE-2012-4295 (wireshark)", Total: 1, RedFat: 1}},
		Figure8:       &Figure8Result{Rows: []Fig8Row{{Name: "astar", Slowdown: 1.3}}, GeoMean: 1.3},
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Results
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(back.Table1) != 1 || back.Table1[0].Name != "mcf" || back.Table1[0].Merge != 2.5 {
		t.Errorf("table1 round-trip: %+v", back.Table1)
	}
	if back.Table2[0].RedFat != 1 || back.Figure8.GeoMean != 1.3 {
		t.Errorf("round-trip lost values: %+v", back)
	}
	if back.FalsePositives != nil || back.Ablation != nil {
		t.Error("sections that did not run must be omitted")
	}
	// The snake_case key contract for downstream consumers.
	for _, key := range []string{`"baseline_cycles"`, `"checksum_ok"`, `"table1_summary"`} {
		if !bytes.Contains(buf.Bytes(), []byte(key)) {
			t.Errorf("JSON missing key %s:\n%s", key, buf.String())
		}
	}
}
