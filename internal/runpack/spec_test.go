package runpack

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"redfat"
	"redfat/internal/juliet"
)

// hostOnlyKnobs are the run-config fields that never enter a RunSpec:
// host-side observers that cannot change guest cycles, detections or
// output, so replay has nothing to restore.
var hostOnlyKnobs = map[string]bool{
	"Trace": true, "TraceLimit": true, "Metrics": true, "EventTrace": true,
	"IndirectHook": true, "Profiler": true, "Flight": true,
}

// setNonZero stores a non-zero value of v's kind into v.
func setNonZero(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(-3)
	case reflect.Uint64:
		v.SetUint(7)
	case reflect.Slice:
		if v.Type().Elem().Kind() != reflect.Uint64 {
			t.Fatalf("%s: unsupported slice type %v", name, v.Type())
		}
		v.Set(reflect.ValueOf([]uint64{4, 5}))
	default:
		t.Fatalf("%s: unsupported knob kind %v; extend setNonZero", name, v.Kind())
	}
}

// TestRunSpecCoversEveryKnob classifies every run-config field: a field
// is either replayed (it carries a JSON key and survives PackRun → Open →
// Verify → decode with a non-zero value) or host-only (json:"-" and named
// in hostOnlyKnobs). A new knob that is neither fails here, so replay
// coverage cannot silently lag the config.
func TestRunSpecCoversEveryKnob(t *testing.T) {
	var spec RunSpec
	sv := reflect.ValueOf(&spec).Elem()
	typ := sv.Type()
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch tag := f.Tag.Get("json"); {
		case tag == "-":
			if !hostOnlyKnobs[f.Name] {
				t.Errorf("%s is json:\"-\" but not a known host-only knob", f.Name)
			}
		case tag == "":
			t.Errorf("%s has no json tag: record it in the RunSpec or mark it host-only", f.Name)
		case hostOnlyKnobs[f.Name]:
			t.Errorf("host-only %s carries json key %q", f.Name, tag)
		default:
			setNonZero(t, f.Name, sv.Field(i))
		}
	}

	c := juliet.CVECases()[0]
	_, hard, _ := hardenCase(t, c, redfat.Defaults())
	hardData, err := hard.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "pack")
	if err := PackRun(dir, []string{"prog.relf"}, hardData, hard, spec,
		&redfat.Result{}, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	p, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	man, err := Verify(p)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if man.Run == nil || !reflect.DeepEqual(*man.Run, spec) {
		t.Fatalf("run spec did not round-trip:\npacked:  %+v\ndecoded: %+v", spec, man.Run)
	}
}

// TestReplayPackFromPreviousRelease replays a run pack written by the
// rfvm of the previous release (tool version redfat-go/6, with every
// RunSpec key of that release set): it must verify, decode to the same
// options, re-marshal to the same run object, and replay byte-identically.
func TestReplayPackFromPreviousRelease(t *testing.T) {
	dir := filepath.Join("testdata", "rfvm-v6-knobs")
	p, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	man, err := Verify(p)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	want := RunSpec{
		Input: []uint64{4}, Hardened: true, AbortOnError: true,
		MaxCycles: 100000, Forensics: true, NoJIT: true, NoIndirect: true,
		JITThreshold: 3, NoLibcCheck: true, QuarantineBytes: 4096,
		Canary: true, UnderAllocEvery: 64,
	}
	if man.Run == nil || !reflect.DeepEqual(*man.Run, want) {
		t.Fatalf("decoded run spec %+v, want %+v", man.Run, want)
	}

	// The run object re-marshals to the recorded keys, in the recorded
	// order.
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Run json.RawMessage `json:"run"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var recorded bytes.Buffer
	if err := json.Compact(&recorded, doc.Run); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(man.Run)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, recorded.Bytes()) {
		t.Fatalf("run object re-marshals as\n%s\nwant\n%s", again, recorded.Bytes())
	}

	rep, err := Replay(p, man)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !rep.Identical() {
		t.Fatalf("replay diverged in %v", rep.Mismatched)
	}
}
