package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's side of the call.
type span struct {
	name       string // "<layer>.<call>"
	start, end time.Duration
	parent     int // index into tracer.spans, -1 at top level
	prog       int // program id, -1 outside any program
	alloc      uint64
}

// tracer keeps spans in memory for one traced pass. A nil *tracer
// records nothing, so the untraced pipeline calls the same methods.
// Span times are read from the same thread CPU clock as the end-to-end
// timings (see cpuNow).
type tracer struct {
	epoch   time.Duration
	spans   []span
	stack   []int
	prog    int
	samples []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{
		epoch:   cpuNow(),
		prog:    -1,
		samples: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}},
	}
}

func (t *tracer) allocBytes() uint64 {
	metrics.Read(t.samples)
	return t.samples[0].Value.Uint64()
}

// begin opens a span; the returned index closes it with end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, prog: t.prog,
		alloc: t.allocBytes(), start: cpuNow() - t.epoch})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.end = cpuNow() - t.epoch
	s.alloc = t.allocBytes() - s.alloc
	t.stack = t.stack[:len(t.stack)-1]
}

// setProg tags the spans that follow with a program id.
func (t *tracer) setProg(id int) {
	if t != nil {
		t.prog = id
	}
}

// layerStat is the per-layer aggregate of a traced pass.
type layerStat struct {
	calls      int
	busy, self time.Duration
	alloc      uint64 // bytes allocated in the layer's own (self) time
}

// layers folds spans by layer (the name's first dot-separated word).
// Busy time counts only a layer's outermost spans, so a layer calling
// itself is not counted twice; self time subtracts child spans.
func (t *tracer) layers() map[string]*layerStat {
	out := make(map[string]*layerStat)
	childDur := make([]time.Duration, len(t.spans))
	childAlloc := make([]uint64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			childDur[s.parent] += s.end - s.start
			childAlloc[s.parent] += s.alloc
		}
	}
	for i, s := range t.spans {
		l := layerOf(s.name)
		st := out[l]
		if st == nil {
			st = &layerStat{}
			out[l] = st
		}
		st.calls++
		d := s.end - s.start
		st.self += d - childDur[i]
		st.alloc += s.alloc - min(s.alloc, childAlloc[i])
		if !t.insideLayer(s.parent, l) {
			st.busy += d
		}
	}
	return out
}

// insideLayer reports whether span i or one of its ancestors belongs to layer l.
func (t *tracer) insideLayer(i int, l string) bool {
	for ; i >= 0; i = t.spans[i].parent {
		if layerOf(t.spans[i].name) == l {
			return true
		}
	}
	return false
}

// busy sums the durations of the named spans.
func (t *tracer) busy(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d += s.end - s.start
		}
	}
	return d
}

// allocOf sums the bytes allocated inside the named spans.
func (t *tracer) allocOf(name string) uint64 {
	var n uint64
	for _, s := range t.spans {
		if s.name == name {
			n += s.alloc
		}
	}
	return n
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// writeLayerTable prints calls, busy, self and allocated bytes per layer.
func writeLayerTable(w io.Writer, ls map[string]*layerStat) {
	names := make([]string, 0, len(ls))
	for n := range ls {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-10s %8s %10s %10s %14s\n", "layer", "calls", "busy_s", "self_s", "alloc_bytes")
	for _, n := range names {
		s := ls[n]
		fmt.Fprintf(w, "%-10s %8d %10.4f %10.4f %14d\n", n, s.calls,
			s.busy.Seconds(), s.self.Seconds(), s.alloc)
	}
}

// chromeEvent is one record of the trace-event JSON format, the same
// shape the repository's Chrome trace export writes.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // thread CPU microseconds since the pass began
	Dur   float64        `json:"dur"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON to path.
func (t *tracer) writeChrome(path, meta string) error {
	ev := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		ev[i] = chromeEvent{
			Name: s.name, Cat: layerOf(s.name), Phase: "X",
			TS:  float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: 1,
			Args: map[string]any{"id": i, "parent": s.parent, "program": s.prog,
				"alloc_bytes": s.alloc},
		}
	}
	doc := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
		Meta        string        `json:"otherData"`
	}{ev, meta}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
