package runpack

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"redfat"
	"redfat/internal/juliet"
	"redfat/internal/knob"
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
		v.SetInt(3)
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

// checkFlag parses want into field i of a fresh config of type typ
// through the flags knob.Flags registers, when that field has a flag.
func checkFlag(t *testing.T, typ reflect.Type, i int, want reflect.Value) {
	t.Helper()
	f := typ.Field(i)
	name, ok := f.Tag.Lookup("flag")
	if !ok {
		return
	}
	cfg := reflect.New(typ)
	fs := flag.NewFlagSet("knobs", flag.ContinueOnError)
	knob.Flags(fs, cfg.Interface())
	arg := fmt.Sprintf("-%s=%v", name, want.Interface())
	if err := fs.Parse([]string{arg}); err != nil {
		t.Errorf("%s: %s: %v", f.Name, arg, err)
		return
	}
	if got := cfg.Elem().Field(i); !reflect.DeepEqual(got.Interface(), want.Interface()) {
		t.Errorf("%s: %s parsed to %v", f.Name, arg, got.Interface())
	}
}

// TestRunSpecCoversEveryKnob classifies every run-config field: a field
// is either replayed (it carries a JSON key and survives PackRun → Open →
// Verify → decode with a non-zero value) or host-only (json:"-" and named
// in hostOnlyKnobs). A new knob that is neither fails here, so replay
// coverage cannot silently lag the config. A field with an rfvm flag
// must parse from it.
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
		checkFlag(t, typ, i, sv.Field(i))
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

// checkRemarshals checks that v marshals to the bytes of the manifest
// object recorded under key in pack dir: the same keys, in the same
// order.
func checkRemarshals(t *testing.T, dir, key string, v any) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var recorded bytes.Buffer
	if err := json.Compact(&recorded, doc[key]); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, recorded.Bytes()) {
		t.Fatalf("%s object re-marshals as\n%s\nwant\n%s", key, again, recorded.Bytes())
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

	checkRemarshals(t, dir, "run", man.Run)

	rep, err := Replay(p, man)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !rep.Identical() {
		t.Fatalf("replay diverged in %v", rep.Mismatched)
	}
}

// optionsExceptions are the Options fields that are not knobs of their
// own: only AllowList's presence is recorded (KnobSpec.HasAllowList and
// its .rf.config bit); the list itself is a rewrite-pack member.
var optionsExceptions = map[string]bool{"AllowList": true}

// TestOptionsCoverEveryKnob is the hardening twin of
// TestRunSpecCoversEveryKnob: every Options field outside
// optionsExceptions must carry a JSON key that round-trips through the
// manifest knobs, must have a .rf.config bit or byte that round-trips
// with a non-zero value through Harden → KnobsFromBinary → decode, and,
// if it has a redfat flag, must parse from it. Fields are set one at a
// time, so two knobs sharing a bit fail too.
func TestOptionsCoverEveryKnob(t *testing.T) {
	bin, err := juliet.CVECases()[0].Build()
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(redfat.Options{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if optionsExceptions[f.Name] {
			continue
		}
		t.Run(f.Name, func(t *testing.T) {
			if tag := f.Tag.Get("json"); tag == "" || tag == "-" {
				t.Fatalf("%s has no json key", f.Name)
			}
			// Harden records MaxBatch 0 as 8, so start from 8.
			opt := redfat.Options{MaxBatch: 8}
			v := reflect.ValueOf(&opt).Elem().Field(i)
			setNonZero(t, f.Name, v)

			data, err := json.Marshal(KnobSpec{Options: opt})
			if err != nil {
				t.Fatal(err)
			}
			var back KnobSpec
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back.Options, opt) {
				t.Errorf("manifest knobs %s decode to %+v, want %+v", data, back.Options, opt)
			}

			hard, _, err := redfat.Harden(bin, opt)
			if err != nil {
				t.Fatal(err)
			}
			k, ok := KnobsFromBinary(hard)
			if !ok {
				t.Fatal("hardened binary has no decodable .rf.config")
			}
			got, _, err := k.decode()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, opt) || !reflect.DeepEqual(k.Options, opt) {
				t.Errorf(".rf.config %s decodes to %+v, want %+v", k.ConfigHex, got, opt)
			}
			checkFlag(t, typ, i, v)
		})
	}
}

// TestRewritePackFromPreviousRelease checks a rewrite pack written by the
// redfat of the previous release (redfat-go/6, run as `redfat -O0
// -local-liveness -noindirect -nolibccheck -maxbatch 3 -runpack pack`):
// it must verify, its knobs must decode to the same options and
// re-marshal to the recorded knobs object, and it must replay
// byte-identically.
func TestRewritePackFromPreviousRelease(t *testing.T) {
	dir := filepath.Join("testdata", "redfat-v6-rewrite")
	p, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	man, err := Verify(p)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	want := redfat.Defaults()
	want.Elim, want.Batch, want.Merge, want.ElimDom = false, false, false, false
	want.LocalLiveness, want.NoIndirect, want.NoLibcCheck = true, true, true
	want.MaxBatch = 3
	if man.Knobs == nil || !reflect.DeepEqual(man.Knobs.Options, want) || man.Knobs.HasAllowList {
		t.Fatalf("decoded knobs %+v, want %+v", man.Knobs, want)
	}
	opt, _, err := man.Knobs.decode()
	if err != nil || !reflect.DeepEqual(opt, want) {
		t.Fatalf("config_hex decodes to %+v (%v), want %+v", opt, err, want)
	}
	checkRemarshals(t, dir, "knobs", man.Knobs)

	rep, err := Replay(p, man)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !rep.Identical() {
		t.Fatalf("replay diverged in %v", rep.Mismatched)
	}
}

// TestKnobsKeepAllowListPlace pins the manifest bytes of a knob set with
// an allow-list next to later omitempty knobs: allow_list stays right
// after max_batch, where the previous release wrote it.
func TestKnobsKeepAllowListPlace(t *testing.T) {
	opt := redfat.Defaults()
	opt.MaxBatch, opt.NoLibcCheck, opt.NoIndirect = 8, true, true
	got, err := json.Marshal(KnobSpec{Options: opt, HasAllowList: true, ConfigHex: "01fd1c0800"})
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"lowfat":true,"check_reads":true,"size_check":true,"elim":true,` +
		`"batch":true,"merge":true,"elim_dom":true,"max_batch":8,"allow_list":true,` +
		`"no_libc_check":true,"no_indirect":true,"config_hex":"01fd1c0800"}`
	if string(got) != want {
		t.Fatalf("knobs marshal as\n%s\nwant\n%s", got, want)
	}
}
