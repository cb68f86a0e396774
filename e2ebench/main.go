// Command e2ebench is the end-to-end host benchmark of RedFat-Go. For one
// workload it generates the input programs, then drives the user
// pipeline over every program through the public entry points: profile
// (spec-ref), Harden, VerifyHardened, and Run for the baseline and the
// hardened binary. It checks every output, prints each metric with its
// unit, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// traced pass wraps each call into a layer in a span and the metrics are
// the per-layer ones (BENCHMARK.json lists both sets).
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload spec-ref --seed 1 --seconds 20 --trace 0
//
// The seed only permutes the order of the programs within each pass, so
// the guest fingerprint must be the same under every seed. Timings are
// CPU time of the benchmark's thread (see cpuNow), medians over the
// passes that fit in --seconds after one untimed warm-up pass; the
// garbage collector runs at the settings found in the environment.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	traceDir string
}

func run(args []string, stdout, stderr io.Writer) int {
	// The timings read this thread's CPU clock (see cpuNow).
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var traceFlag int
	fs.StringVar(&c.workload, "workload", "", "workload: spec-ref, rewrite-large or detect-many")
	fs.Int64Var(&c.seed, "seed", 1, "seed for the program order within each pass")
	fs.Float64Var(&c.seconds, "seconds", 10, "measurement time after set-up and warm-up")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs traced passes and reports per-layer metrics")
	fs.BoolVar(&c.tiny, "tiny", false, "shrink every workload to a few small programs (smoke test)")
	fs.StringVar(&c.traceDir, "trace-dir", ".bench_build/e2ebench", "where a traced run writes its Chrome trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "e2ebench: --trace must be 0 or 1")
		return 2
	}
	c.trace = traceFlag == 1
	b, err := newBench(c.workload, c.tiny)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	res, err := measure(b, c, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printEnv(w io.Writer, c config) {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	env := func(k string) string {
		if v, ok := os.LookupEnv(k); ok {
			return v
		}
		return "unset"
	}
	fmt.Fprintf(w, "env go=%s nproc=%d gomaxprocs=%d GOGC=%s GOMEMLIMIT=%s seed=%d rev=%s\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0),
		env("GOGC"), env("GOMEMLIMIT"), c.seed, rev)
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func allocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// runPass drives the pipeline over every program once, in an order
// drawn from rng.
func runPass(b bench, p *pass, rng *rand.Rand) *pass {
	order := rng.Perm(b.size())
	var ms0 runtime.MemStats
	if p.tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	a0 := allocBytes()
	w0, t0 := time.Now(), cpuNow()
	for _, i := range order {
		p.tr.setProg(i)
		p.progFailed = false
		s := cpuNow()
		b.runProg(p, i)
		p.progMS = append(p.progMS, float64(cpuNow()-s)/1e6)
		p.programs++
		if p.progFailed {
			p.failedProgs++
		}
	}
	p.total, p.wall = cpuNow()-t0, time.Since(w0)
	p.allocBytes = allocBytes() - a0
	p.tr.setProg(-1)
	if p.tr != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		p.c["go.gc_count"] = float64(ms1.NumGC - ms0.NumGC)
		p.c["go.gc_pause_s"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9
	}
	return p
}

// measure runs set-up, the warm-up pass and the measured passes, and
// returns the result line.
func measure(b bench, c config, out io.Writer) (*result, error) {
	printEnv(out, c)
	// Set-up is repeated at least five times and until it has taken a
	// second in all, so that its median is steady even where one set-up
	// takes a few milliseconds. A traced run sets up once, recording
	// spans; so does a tiny (smoke test) run.
	once := c.trace || c.tiny
	var setupS []float64
	var setupPass *pass
	for spent := 0.0; len(setupS) == 0 || (!once && (len(setupS) < 5 || spent < 1) && len(setupS) < 200); {
		setupPass = newPass(nil)
		if c.trace {
			setupPass = newPass(newTracer())
		}
		t0 := cpuNow()
		if err := b.setup(setupPass); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := (cpuNow() - t0).Seconds()
		setupS = append(setupS, d)
		spent += d
	}
	rng := rand.New(rand.NewSource(c.seed))
	warm := runPass(b, newPass(nil), rng)
	ref := warm.digest()

	budget := time.Duration(c.seconds * float64(time.Second))
	start := time.Now()
	var untraced, traced []*pass
	for {
		untraced = append(untraced, runPass(b, newPass(nil), rng))
		if c.trace {
			traced = append(traced, runPass(b, newPass(newTracer()), rng))
		}
		// Start another round only if one more fits in the budget.
		round := time.Since(start) / time.Duration(len(untraced))
		if time.Since(start)+round > budget {
			break
		}
	}

	all := append(append([]*pass{warm}, untraced...), traced...)
	res := &result{Metrics: make(map[string]metric)}
	var mismatch []string
	for _, p := range all {
		if d := p.digest(); d != ref {
			mismatch = append(mismatch, d)
		}
		if p != warm {
			res.Attempted += p.programs
			res.Failed += p.failedProgs
		}
	}
	res.Attempted++ // the fingerprint agreement check
	if len(mismatch) > 0 {
		res.Failed++
		fmt.Fprintf(out, "FAIL fingerprint: passes disagree: %s vs %v\n", ref, mismatch)
	}
	printFailures(out, all...)
	res.Correct = res.Failed == 0

	fmt.Fprintf(out, "workload %s programs=%d passes=%d traced=%d (after 1 warm-up)\n",
		c.workload, b.size(), len(untraced), len(traced))
	fmt.Fprintf(out, "fingerprint %s %s\n", c.workload, ref)
	fmt.Fprintf(out, "pass total_s %.4f\n", totals(untraced))

	e2e := endToEnd(untraced, setupS)
	e2e["fail_ratio"] = metric{float64(res.Failed) / float64(res.Attempted), "ratio"}
	printMetrics(out, e2e)
	if !c.trace {
		for _, m := range endToEndMetrics {
			res.Metrics[m.name] = e2e[m.name]
		}
		return res, nil
	}

	perPass := make([]map[string]float64, len(traced))
	for i, p := range traced {
		perPass[i] = layerValues(setupPass, p)
	}
	ratio := median(totals(traced)) / median(totals(untraced))
	last := traced[len(traced)-1]
	fmt.Fprintf(out, "per-layer table (last traced pass)\n")
	writeLayerTable(out, last.tr.layers())
	path := filepath.Join(c.traceDir, fmt.Sprintf("trace-%s-seed%d.json", c.workload, c.seed))
	if err := last.tr.writeChrome(path, "e2ebench "+c.workload+" (ts = thread CPU microseconds)"); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "chrome trace written to %s\n", path)
	layer := make(map[string]metric)
	for _, m := range layerMetrics {
		vals := make([]float64, len(perPass))
		for i, pv := range perPass {
			vals[i] = pv[m.name]
		}
		layer[m.name] = metric{median(vals), m.unit}
	}
	layer["trace_overhead"] = metric{ratio, "ratio"}
	for _, m := range layerMetrics {
		fmt.Fprintf(out, "metric %-28s %.6g %s  (moves %s)\n", m.name, layer[m.name].Value, m.unit, m.moves)
		res.Metrics[m.name] = layer[m.name]
	}
	return res, nil
}

func totals(ps []*pass) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.total.Seconds()
	}
	return out
}

// endToEnd computes the end-to-end metrics: medians over the untraced
// passes, latency percentiles over every program of every pass.
func endToEnd(ps []*pass, setupS []float64) map[string]metric {
	col := func(f func(p *pass) float64) float64 {
		v := make([]float64, len(ps))
		for i, p := range ps {
			v[i] = f(p)
		}
		return median(v)
	}
	var lat []float64
	for _, p := range ps {
		lat = append(lat, p.progMS...)
	}
	q, tail := tailPercentile(lat)
	m := map[string]metric{
		"setup_s":  {median(setupS), "s"},
		"total_s":  {col(func(p *pass) float64 { return p.total.Seconds() }), "s"},
		"wall_s":   {col(func(p *pass) float64 { return p.wall.Seconds() }), "s"},
		"harden_s": {col(func(p *pass) float64 { return p.harden.Seconds() }), "s"},
		"verify_s": {col(func(p *pass) float64 { return p.verify.Seconds() }), "s"},
		"run_s":    {col(func(p *pass) float64 { return p.run.Seconds() }), "s"},
		"guest_mips": {col(func(p *pass) float64 {
			if p.run == 0 {
				return 0 // every program failed before running
			}
			return float64(p.insts) / p.run.Seconds() / 1e6
		}), "Minst/s"},
		"program_ms_p50": {median(lat), "ms"},
		"program_ms_p99": {tail, "ms"},
		"alloc_mb":       {col(func(p *pass) float64 { return float64(p.allocBytes) / (1 << 20) }), "MB"},
		"max_rss_mb":     {maxRSSMB(), "MB"},
	}
	if sd := ps[0].slowdowns; len(sd) > 0 {
		m["hardened_slowdown"] = metric{geomean(sd), "x"}
	}
	if q != 99 {
		// Too few samples for p99: the name stays, the line says which
		// percentile it holds.
		m["program_ms_p99"] = metric{tail, fmt.Sprintf("ms(p%d)", q)}
	}
	return m
}

func printMetrics(w io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "metric %-28s %.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest whole percentile, at most 99, that
// has at least ten samples above it (nearest-rank), and its value. With
// fewer than eleven samples it returns the maximum as percentile 100.
func tailPercentile(v []float64) (int, float64) {
	if len(v) == 0 {
		return 100, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	for q := 99; q >= 50; q-- {
		idx := int(math.Ceil(float64(q)/100*float64(n))) - 1
		if n-1-idx >= 10 {
			return q, s[idx]
		}
	}
	return 100, s[n-1]
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
