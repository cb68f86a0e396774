package cfg_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"os"
	"sort"
	"strings"
	"testing"

	"redfat/internal/cfg"
	"redfat/internal/kraken"
	"redfat/internal/relf"
	"redfat/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/graph.golden")

// goldenBinaries is the corpus TestGraphGolden pins: a small Chrome-like
// build and every SPEC-like and switch-dense workload binary.
func goldenBinaries(t *testing.T) (names []string, bins []*relf.Binary) {
	t.Helper()
	bin, err := kraken.Build(200)
	if err != nil {
		t.Fatal(err)
	}
	names, bins = append(names, "kraken-200"), append(bins, bin)
	for _, bm := range append(workload.All(), workload.SwitchDense()...) {
		bin, err := bm.Build()
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		names, bins = append(names, bm.Name), append(bins, bin)
	}
	return names, bins
}

// graphDigest summarises everything the rewriter reads from cfg for one
// binary: the block partition, sorted successor and predecessor lists,
// the Entry/Unknown marks and Entries, InstAt and IsLeader for every
// address from 8 bytes below the text to 8 bytes past it, and the
// RedundantChecks map over every memory operand. Each part is hashed
// separately so a drift names the part that moved.
func graphDigest(t *testing.T, bin *relf.Binary) string {
	t.Helper()
	p, err := cfg.Disassemble(bin)
	if err != nil {
		t.Fatal(err)
	}
	df := cfg.NewDataflow(p)
	g := df.Graph
	sum := func(h hash.Hash) string { return fmt.Sprintf("%x", h.Sum(nil)[:8]) }

	part, edges, marks := sha256.New(), sha256.New(), sha256.New()
	sorted := func(s []int) []int {
		c := append([]int(nil), s...)
		sort.Ints(c)
		return c
	}
	for b := range g.Blocks {
		blk := &g.Blocks[b]
		fmt.Fprintf(part, "%d %d\n", blk.Start, blk.End)
		fmt.Fprintf(edges, "%d %v %v\n", b, sorted(blk.Succs), sorted(blk.Preds))
		fmt.Fprintf(marks, "%d %t %t\n", b, blk.Entry, blk.Unknown)
	}
	fmt.Fprintf(marks, "entries %v\n", g.Entries)

	text := bin.Text()
	leaders := sha256.New()
	nLeaders := 0
	for a := text.Addr - 8; a < text.Addr+uint64(len(text.Data))+8; a++ {
		i, ok := p.InstAt(a)
		l := p.IsLeader(a)
		if l {
			nLeaders++
		}
		fmt.Fprintf(leaders, "%d %t %t\n", i, ok, l)
	}

	// Every memory operand is a candidate; every third one is listed
	// twice, first with a narrower span, to pin "later entries win".
	var sites []cfg.CheckSite
	for i := range p.Insts {
		in := &p.Insts[i].Inst
		if !in.IsMemAccess() {
			continue
		}
		lo := int64(in.Mem.Disp)
		s := cfg.CheckSite{Inst: i, Lo: lo, Hi: lo + int64(in.MemWidth())}
		if in.Writes() {
			s.Mode = 1
		}
		if len(sites)%3 == 0 {
			sites = append(sites, cfg.CheckSite{Inst: i, Mode: s.Mode, Lo: lo, Hi: lo + 1})
		}
		sites = append(sites, s)
	}
	red := df.Redundant(sites)
	keys := make([]int, 0, len(red))
	for i := range red {
		keys = append(keys, i)
	}
	sort.Ints(keys)
	redh := sha256.New()
	for _, i := range keys {
		fmt.Fprintf(redh, "%d %d\n", i, red[i])
	}

	return fmt.Sprintf("insts=%d blocks=%d edges=%d entries=%d leaders=%d redundant=%d | part %s edges %s marks %s leaders %s redundant %s",
		len(p.Insts), len(g.Blocks), g.NumEdges(), len(g.Entries), nLeaders, len(red),
		sum(part), sum(edges), sum(marks), sum(leaders), sum(redh))
}

// TestGraphGolden pins the recovered graph and dominator-checked
// elimination of the workload corpus to testdata/graph.golden, so a
// change to how cfg represents a program cannot move a block, an edge,
// a leader or an eliminated check. Regenerate with
// `go test ./internal/cfg -run GraphGolden -update` only when a change
// of the analysis itself is intended.
func TestGraphGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every workload binary")
	}
	names, bins := goldenBinaries(t)
	var got strings.Builder
	for k, bin := range bins {
		fmt.Fprintf(&got, "%s %s\n", names[k], graphDigest(t, bin))
	}
	const path = "testdata/graph.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	gl := strings.Split(got.String(), "\n")
	wl := strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("golden has %d lines, got %d", len(wl), len(gl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("drift:\n got %s\nwant %s", gl[i], wl[i])
		}
	}
}
