package vm

// The decoded basic-block cache: the VM's host-side fast path.
//
// The seed interpreter paid one map[uint64] lookup per retired guest
// instruction (the per-PC decode cache). The block cache replaces that
// with straight-line execution over predecoded runs: code is decoded once
// into blocks — maximal fall-through sequences ending at the first
// control transfer, TRAP patch site, or RTCALL — and Run executes a whole
// block with nothing but a slice index per instruction. Blocks are
// indexed by sparse two-level per-code-page tables (64 chunks of 64
// pointers, a chunk allocated on the first block that starts in it), so
// locating the next block after a branch costs a single-entry page-cache
// hit plus two array indexes in the common case, and a touched code page
// costs 512 bytes plus 512 per chunk in use rather than 32 KB.
//
// Block chaining removes even that cost from the steady state: each block
// carries two successor slots — a fall-through slot (keyed by the fixed
// address after the block's last instruction) and a taken slot (a
// one-entry BTB keyed by the last observed branch target). On block exit
// the chain is consulted first, so straight-line and loop-heavy code
// never touches the block tables at all; only a changed indirect target
// or a cold edge falls back to the page-table walk, which then installs
// the chain for next time. Chains are pointers into the same cache the
// per-page tables index, so FlushICache invalidates both together (the
// tables and every chain die with the cache generation).
//
// The cache is host-side only: cycle accounting, hook invocation order
// (TraceHook, MemHook, BlockHook), error reporting and the cycle-budget
// abort point are bit-identical to the legacy per-instruction path, which
// remains available behind VM.NoBlockCache for A/B validation, with
// VM.NoChain ablating just the chaining layer.

import (
	"fmt"

	"redfat/internal/isa"
	"redfat/internal/mem"
	"redfat/internal/obs"
)

// maxBlockInsts bounds eager decode-ahead so a pathological straight-line
// run cannot stall the first instruction of a block; longer runs simply
// chain into the next block.
const maxBlockInsts = 64

// pageOffMask extracts the page offset of an address.
const pageOffMask = mem.PageSize - 1

// blockInst is one predecoded instruction with its program counter.
// Fusing the two into a single slice element keeps the hot execution
// loop to one bounds check and one sequential cache stream per
// instruction.
type blockInst struct {
	pc uint64
	in isa.Inst
}

// block is one straight-line run of predecoded instructions, plus the
// chain slots linking it to its observed successors.
type block struct {
	insts []blockInst // predecoded instructions in fall-through order

	fallPC uint64 // address after the last instruction (fall-through edge)
	fall   *block // successor when control falls through (nil until chained)

	takenPC uint64 // last observed non-fall-through exit target
	taken   *block // its block (a one-entry BTB for indirect exits)

	// Superblock tier state: hot counts dispatches to this block as a
	// potential trace root; trace is the compiled superblock once the
	// hotness threshold is crossed; noTrace pins the block to the
	// interpreter after a failed compilation attempt. All three die with
	// the cache generation on FlushICache.
	hot     uint32
	noTrace bool
	trace   *trace
}

// Block-table geometry: a code page's offsets split into chunkCount
// chunks of chunkLen entries each.
const (
	chunkBits  = 6
	chunkLen   = 1 << chunkBits
	chunkCount = mem.PageSize / chunkLen
)

// codePage indexes the blocks that begin on one 4 KiB code page by page
// offset: chunk off>>chunkBits, slot off&(chunkLen-1). Chunks are
// allocated on the first block that begins in them.
type codePage struct {
	chunks [chunkCount]*[chunkLen]*block
}

// endsBlock reports whether op terminates a straight-line block: control
// transfers, TRAP (patch-table redirection), and RTCALL (host handlers may
// rewrite RIP).
func endsBlock(op isa.Op) bool {
	return op.IsBranch() || op == isa.TRAP || op == isa.RTCALL
}

// blockAt returns the block starting at pc, building and caching it on
// first use.
func (v *VM) blockAt(pc uint64) (*block, error) {
	idx := pc >> mem.PageShift
	cp := v.bcPage
	if idx != v.bcPageIdx {
		cp = v.bcache[idx]
		if cp == nil {
			cp = &codePage{}
			v.bcache[idx] = cp
		}
		v.bcPageIdx, v.bcPage = idx, cp
	}
	off := pc & pageOffMask
	chunk := cp.chunks[off>>chunkBits]
	var b *block
	if chunk != nil {
		b = chunk[off&(chunkLen-1)]
	}
	if b == nil {
		var err error
		if b, err = v.buildBlock(pc); err != nil {
			return nil, err
		}
		if chunk == nil {
			chunk = new([chunkLen]*block)
			cp.chunks[off>>chunkBits] = chunk
		}
		chunk[off&(chunkLen-1)] = b
		v.nBlocks++
		v.nBlockInsts += len(b.insts)
		v.Flight.Record(obs.EvBlockEntry, 0, pc, 1)
	} else {
		// Table walk on a cold or re-targeted edge (chain hits never get
		// here, so this stays off the per-instruction fast path).
		v.Flight.Record(obs.EvBlockEntry, 0, pc, 0)
	}
	return b, nil
}

// buildBlock decodes the straight-line run beginning at start. Fetch or
// decode failures after the first instruction end the block early rather
// than erroring: execution that actually falls through to the bad address
// reports the fault there, exactly as the legacy path would.
func (v *VM) buildBlock(start uint64) (*block, error) {
	b := &block{}
	pc := start
	for len(b.insts) < maxBlockInsts {
		var buf [isa.MaxInstLen]byte
		n := v.Mem.Fetch(pc, buf[:])
		if n == 0 {
			if len(b.insts) == 0 {
				return nil, &mem.Fault{Addr: pc, Exec: true}
			}
			break
		}
		in, err := isa.Decode(buf[:n])
		if err != nil {
			if len(b.insts) == 0 {
				return nil, fmt.Errorf("vm: at %#x: %w", pc, err)
			}
			break
		}
		if v.tel != nil {
			v.tel.icacheMiss.Inc()
		}
		b.insts = append(b.insts, blockInst{pc: pc, in: in})
		pc += uint64(in.Len)
		if endsBlock(in.Op) {
			break
		}
	}
	b.fallPC = pc
	return b, nil
}

// runBlocks is Run's fast path: execute straight-line through cached
// blocks, following chained successors on block exit and touching the
// block tables only on cold or re-targeted edges.
func (v *VM) runBlocks() error {
	jitOK := v.jitEnabled()
	var b *block
	for !v.Halted {
		if b == nil {
			nb, err := v.blockAt(v.RIP)
			if err != nil {
				v.FlushTelemetry()
				return err
			}
			b = nb
		}
		// Superblock tier: once this block is hot, execute the compiled
		// trace rooted here instead of interpreting. A nil exit means
		// entry was refused (cycle budget too tight for a worst-case
		// iteration) and the block is interpreted this round so the
		// abort fires at the exact instruction.
		if jitOK {
			if t := v.jitTrace(b); t != nil {
				e, err := v.runTrace(t)
				if err != nil {
					v.FlushTelemetry()
					return err
				}
				if e != nil {
					if v.Halted {
						v.FlushTelemetry()
						return nil
					}
					if e.next != nil && e.nextPC == v.RIP {
						b = e.next
						continue
					}
					nb, err := v.blockAt(v.RIP)
					if err != nil {
						v.FlushTelemetry()
						return err
					}
					e.nextPC, e.next = v.RIP, nb
					b = nb
					continue
				}
			}
		}
		for i := 0; ; {
			bi := &b.insts[i]
			if err := v.exec(bi.pc, &bi.in); err != nil {
				v.FlushTelemetry()
				return err
			}
			if v.MaxCycles != 0 && v.Cycles > v.MaxCycles {
				v.Flight.Record(obs.EvBudgetPoll, 0, v.RIP, v.Cycles)
				if v.tel != nil {
					v.tel.cycleAborts.Inc()
				}
				v.FlushTelemetry()
				return &CycleLimitError{v.Cycles}
			}
			if v.Halted {
				v.FlushTelemetry()
				return nil
			}
			i++
			if i == len(b.insts) {
				break
			}
			// Mid-block instructions cannot transfer control: blocks end
			// at the first branch/TRAP/RTCALL, and HLT trips the Halted
			// check above. So RIP here is always insts[i].pc — no re-check.
		}
		// Block exit: follow the chain if the observed target matches.
		rip := v.RIP
		if !v.NoChain {
			if rip == b.fallPC && b.fall != nil {
				b = b.fall
				if v.tel != nil {
					v.tel.chainHits.Inc()
				}
				continue
			}
			if rip == b.takenPC && b.taken != nil {
				b = b.taken
				if v.tel != nil {
					v.tel.chainHits.Inc()
				}
				continue
			}
		}
		nb, err := v.blockAt(rip)
		if err != nil {
			v.FlushTelemetry()
			return err
		}
		if !v.NoChain {
			if v.tel != nil {
				v.tel.chainMisses.Inc()
			}
			if rip == b.fallPC {
				b.fall = nb
			} else {
				b.takenPC, b.taken = rip, nb
			}
		}
		b = nb
	}
	v.FlushTelemetry()
	return nil
}
