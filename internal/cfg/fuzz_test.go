package cfg_test

import (
	"testing"

	"redfat/internal/cfg"
	"redfat/internal/isa"
	"redfat/internal/kraken"
	"redfat/internal/relf"
)

// FuzzDisassemble feeds arbitrary text bytes at an arbitrary base through
// Disassemble, NewDataflowOpts and RedundantChecks. Nothing may panic; a
// text that does not decode must be an error. On success the dense
// address tables must agree with a reference built from Insts for every
// address from 8 bytes below the text to 8 bytes past it, leaders must
// be exactly the block starts the partition cannot explain otherwise,
// and every eliminated check must be dominated by its provider. Run the
// fuzzer with
//
//	go test -run '^$' -fuzz FuzzDisassemble ./internal/cfg/
func FuzzDisassemble(f *testing.F) {
	f.Add([]byte{}, uint64(relf.DefaultTextBase))
	f.Add([]byte{byte(isa.RET)}, uint64(relf.DefaultTextBase))
	bin, err := kraken.Build(200)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bin.Text().Data, bin.Text().Addr)
	f.Fuzz(func(t *testing.T, text []byte, base uint64) {
		bin := &relf.Binary{Entry: base}
		bin.AddSection(&relf.Section{Name: ".text", Kind: relf.SecText,
			Addr: base, Size: uint64(len(text)), Data: text, Exec: true})
		p, err := cfg.Disassemble(bin)
		if err != nil {
			return
		}

		ref := make(map[uint64]int, len(p.Insts))
		for i, di := range p.Insts {
			ref[di.Addr] = i
		}
		for off := -8; off < len(text)+8; off++ {
			a := base + uint64(off)
			want, isInst := ref[a]
			if off < 0 || off >= len(text) {
				isInst = false
			}
			if i, ok := p.InstAt(a); ok != isInst || (ok && i != want) {
				t.Fatalf("InstAt(%#x) = %d, %v; reference %d, %v", a, i, ok, want, isInst)
			}
			if p.IsLeader(a) && !isInst {
				t.Fatalf("IsLeader(%#x) on a non-instruction address", a)
			}
		}

		df := cfg.NewDataflowOpts(p, cfg.GraphOptions{})
		g := df.Graph
		for _, blk := range g.Blocks {
			for i := blk.Start; i < blk.End; i++ {
				leader := p.IsLeader(p.Insts[i].Addr)
				if i > blk.Start && leader {
					t.Fatalf("leader at inst %d inside block [%d, %d)", i, blk.Start, blk.End)
				}
			}
			if blk.Start > 0 && !p.IsLeader(p.Insts[blk.Start].Addr) {
				prev := &p.Insts[blk.Start-1].Inst
				if !prev.Op.IsBranch() && prev.Op != isa.RTCALL && prev.Op != isa.TRAP {
					t.Fatalf("block at inst %d starts neither at a leader nor after a terminator", blk.Start)
				}
			}
		}

		var sites []cfg.CheckSite
		for i := range p.Insts {
			if in := &p.Insts[i].Inst; in.IsMemAccess() {
				lo := int64(in.Mem.Disp)
				sites = append(sites, cfg.CheckSite{Inst: i, Lo: lo, Hi: lo + int64(in.MemWidth())})
			}
		}
		for i, w := range cfg.RedundantChecks(g, df.Dom, sites) {
			if i == w || !df.Dom.Dominates(g.BlockOf[w], g.BlockOf[i]) {
				t.Fatalf("check at inst %d eliminated by undominating provider %d", i, w)
			}
		}
	})
}
