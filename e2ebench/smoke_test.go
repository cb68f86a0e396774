package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// smoke test checks against the metric tables.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the metric
// tables the program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("end_to_end has %d metrics, program reports %d", len(b.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range endToEndMetrics {
		got := b.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("end_to_end[%d] = %+v, program has %s %s %s", i, got, m.name, m.unit, m.better)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("per_layer has %d metrics, program reports %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		got := b.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, program has %s %s %s", i, got, m.name, m.unit, m.better)
		}
	}
}

// runTiny runs one workload at its tiny size and returns the printed
// lines and the decoded result line.
func runTiny(t *testing.T, workload, seed, trace string) ([]string, *result) {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{"--workload", workload, "--tiny", "--seed", seed, "--seconds", "0",
		"--trace", trace, "--trace-dir", t.TempDir()}
	if rc := run(args, &out, &errOut); rc != 0 {
		t.Fatalf("%s trace=%s: exit %d: %s", workload, trace, rc, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	return lines, &res
}

func fingerprint(lines []string) string {
	for _, l := range lines {
		if strings.HasPrefix(l, "fingerprint ") {
			return l
		}
	}
	return ""
}

// TestSmoke runs every workload tiny, untraced under two seeds and
// traced once, and checks that each prints every metric BENCHMARK.json
// names, passes its correctness checks, and keeps one guest fingerprint.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, w := range b.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			lines, res := runTiny(t, w.Name, "1", "0")
			lines2, _ := runTiny(t, w.Name, "2", "0")
			traced, tres := runTiny(t, w.Name, "3", "1")
			for _, r := range []*result{res, tres} {
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", r.Correct, r.Attempted, r.Failed,
						strings.Join(lines, "\n"))
				}
			}
			fp := fingerprint(lines)
			if fp == "" || fp != fingerprint(lines2) || fp != fingerprint(traced) {
				t.Errorf("fingerprints differ: %q, %q (seed 2), %q (traced)", fp, fingerprint(lines2), fingerprint(traced))
			}
			if len(res.Metrics) != len(b.EndToEnd) {
				t.Errorf("untraced result has %d metrics, want %d", len(res.Metrics), len(b.EndToEnd))
			}
			for _, m := range b.EndToEnd {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end %s = %+v (present %v), want unit %s and a value > 0", m.Name, got, ok, m.Unit)
				}
			}
			if len(tres.Metrics) != len(b.PerLayer) {
				t.Errorf("traced result has %d metrics, want %d", len(tres.Metrics), len(b.PerLayer))
			}
			for _, m := range b.PerLayer {
				if got, ok := tres.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s = %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, name := range []string{"fail_ratio", "program_ms_p99"} {
				if !printed(lines, name) {
					t.Errorf("metric %s not printed", name)
				}
			}
		})
	}
}

func printed(lines []string, name string) bool {
	for _, l := range lines {
		if f := strings.Fields(l); len(f) >= 3 && f[0] == "metric" && f[1] == name {
			return true
		}
	}
	return false
}
