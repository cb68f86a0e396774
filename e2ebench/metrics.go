package main

// metricDef names a metric as BENCHMARK.json lists it. For a per-layer
// metric, moves says which end-to-end metric it should move, on which
// workload, and where it should stay flat.
type metricDef struct {
	name, unit, better string
	moves              string
}

// endToEndMetrics are the metrics of an untraced run's JSON line; every
// workload reports each of them. An untraced run also prints lines kept
// out of the JSON: wall_s and max_rss_mb swing with the load on a shared
// host, program_ms_p99 has too few samples on rewrite-large,
// hardened_slowdown is deterministic and needs baseline runs detect-many
// does not make, and fail_ratio is 0 (the JSON's failed/attempted).
var endToEndMetrics = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "total_s", unit: "s", better: "lower"},
	{name: "harden_s", unit: "s", better: "lower"},
	{name: "verify_s", unit: "s", better: "lower"},
	{name: "run_s", unit: "s", better: "lower"},
	{name: "guest_mips", unit: "Minst/s", better: "higher"},
	{name: "program_ms_p50", unit: "ms", better: "lower"},
	{name: "alloc_mb", unit: "MB", better: "lower"},
}

// layerMetrics are the metrics of a traced run's JSON line.
var layerMetrics = []metricDef{
	{"asm.build_s", "s", "lower", "setup_s on rewrite-large; negligible elsewhere"},
	{"asm.text_bytes", "bytes", "lower", "setup_s on rewrite-large"},
	{"relf.unmarshal_s", "s", "lower", "total_s on rewrite-large; absent elsewhere"},
	{"relf.marshal_s", "s", "lower", "total_s on rewrite-large; absent elsewhere"},
	{"relf.bytes", "bytes", "lower", "total_s and alloc_mb on rewrite-large"},
	{"cfg.disassemble_s", "s", "lower", "harden_s on rewrite-large; <1% of total_s on spec-ref"},
	{"cfg.dataflow_s", "s", "lower", "harden_s on rewrite-large; <1% of total_s on spec-ref"},
	{"cfg.alloc_mb", "MB", "lower", "alloc_mb and harden_s on rewrite-large"},
	{"cfg.insts", "count", "lower", "harden_s on rewrite-large"},
	{"cfg.blocks", "count", "lower", "harden_s on rewrite-large"},
	{"cfg.edges", "count", "lower", "harden_s on rewrite-large"},
	{"cfg.unknown_blocks", "count", "lower", "hardened_slowdown on spec-ref (fewer dominated eliminations)"},
	{"cfg.indirect_resolved", "count", "higher", "hardened_slowdown on spec-ref (interp, fsm)"},
	{"redfat.harden_s", "s", "lower", "harden_s on rewrite-large"},
	{"redfat.alloc_mb", "MB", "lower", "alloc_mb on rewrite-large"},
	{"redfat.operands", "count", "lower", "harden_s on rewrite-large"},
	{"redfat.checks", "count", "lower", "run_s and hardened_slowdown on spec-ref"},
	{"redfat.eliminated", "count", "higher", "run_s and hardened_slowdown on spec-ref"},
	{"redfat.elim_dominated", "count", "higher", "run_s and hardened_slowdown on spec-ref"},
	{"redfat.merged_away", "count", "higher", "run_s and hardened_slowdown on spec-ref"},
	{"redfat.failed_sites", "count", "lower", "fail_ratio (unprotected operands) on every workload"},
	{"e9.t1", "count", "higher", "harden_s on rewrite-large"},
	{"e9.t2", "count", "lower", "harden_s on rewrite-large"},
	{"e9.t3", "count", "lower", "harden_s on rewrite-large"},
	{"e9.tramp_bytes", "bytes", "lower", "harden_s and alloc_mb on rewrite-large"},
	{"e9.patch_ratio", "ratio", "higher", "fail_ratio on every workload"},
	{"profile.run_s", "s", "lower", "harden_s on spec-ref; unused elsewhere"},
	{"profile.allowlist_sites", "count", "higher", "hardened_slowdown on spec-ref"},
	{"profile.flagged_sites", "count", "lower", "hardened_slowdown on spec-ref"},
	{"verify.verify_s", "s", "lower", "verify_s on rewrite-large; small on detect-many"},
	{"verify.alloc_mb", "MB", "lower", "alloc_mb on rewrite-large"},
	{"verify.sites", "count", "lower", "verify_s on rewrite-large"},
	{"verify.violations", "count", "lower", "fail_ratio; must stay 0"},
	{"vm.setup_s", "s", "lower", "program_ms_p50 and total_s on detect-many; flat on spec-ref"},
	{"vm.exec_s", "s", "lower", "run_s and guest_mips on spec-ref; flat on detect-many"},
	{"vm.insts", "count", "lower", "guest_mips on spec-ref (must stay bit-identical)"},
	{"vm.cycles", "count", "lower", "hardened_slowdown on spec-ref (must stay bit-identical)"},
	{"vm.ns_per_inst", "ns", "lower", "guest_mips and run_s on spec-ref"},
	{"vm.jit.compiles", "count", "lower", "run_s on spec-ref"},
	{"vm.jit.exec_share", "ratio", "higher", "guest_mips on spec-ref"},
	{"vm.jit.deopts", "count", "lower", "guest_mips on spec-ref"},
	{"vm.icache.chain_hit_rate", "ratio", "higher", "guest_mips on spec-ref"},
	{"vm.rtcall.count", "count", "lower", "run_s on spec-ref"},
	{"mem.tlb_hit_rate", "ratio", "higher", "guest_mips on spec-ref"},
	{"mem.loads", "count", "lower", "guest_mips on spec-ref"},
	{"mem.stores", "count", "lower", "guest_mips on spec-ref"},
	{"mem.mapped_pages", "count", "lower", "alloc_mb and program_ms_p50 on detect-many"},
	{"rtlib.runtime_new_s", "s", "lower", "program_ms_p50 on detect-many"},
	{"rtlib.check_execs", "count", "lower", "run_s and hardened_slowdown on spec-ref"},
	{"rtlib.check_fails", "count", "lower", "run_s on detect-many (the error path)"},
	{"rtlib.coverage", "ratio", "higher", "hardened_slowdown on spec-ref"},
	{"rtlib.libc_span_checks", "count", "lower", "run_s and hardened_slowdown on spec-ref"},
	{"lowfat.allocs", "count", "lower", "run_s on spec-ref (churn, tree) and detect-many"},
	{"lowfat.frees", "count", "lower", "run_s on spec-ref (churn, tree) and detect-many"},
	{"lowfat.mapped_bytes", "bytes", "lower", "alloc_mb on detect-many"},
	{"redzone.quarantine_bytes", "bytes", "lower", "run_s on detect-many (use-after-free, double free)"},
	{"heap.allocs", "count", "lower", "run_s on spec-ref (baseline runs)"},
	{"heap.frees", "count", "lower", "run_s on spec-ref (baseline runs)"},
	{"go.gc_count", "count", "lower", "alloc_mb and program_ms_p50 on detect-many"},
	{"go.gc_pause_s", "s", "lower", "program_ms_p50 on detect-many"},
	{"trace_overhead", "ratio", "lower", "none: traced total_s / untraced total_s, the cost of tracing"},
}

// layerValues derives the per-layer metrics of one traced pass; setup
// holds the spans and counters of the traced set-up.
func layerValues(setup, p *pass) map[string]float64 {
	const mb = 1 << 20
	tr, c := p.tr, p.c
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	sec := func(name string) float64 { return tr.busy(name).Seconds() }
	v := map[string]float64{
		"asm.build_s":       setup.tr.busy("asm.build").Seconds(),
		"asm.text_bytes":    setup.c["asm.text_bytes"],
		"relf.unmarshal_s":  sec("relf.unmarshal"),
		"relf.marshal_s":    sec("relf.marshal"),
		"cfg.disassemble_s": sec("cfg.disassemble"),
		"cfg.dataflow_s":    sec("cfg.dataflow"),
		"cfg.alloc_mb":      float64(tr.allocOf("cfg.disassemble")+tr.allocOf("cfg.dataflow")) / mb,
		"redfat.harden_s":   sec("redfat.harden"),
		"redfat.alloc_mb":   float64(tr.allocOf("redfat.harden")) / mb,
		"e9.patch_ratio":    ratio(c["e9.patched"], c["e9.patched"]+c["redfat.failed_sites"]),
		"profile.run_s":     sec("profile.run"),
		"verify.verify_s":   sec("verify.verify"),
		"verify.alloc_mb":   float64(tr.allocOf("verify.verify")) / mb,
		"vm.setup_s":        sec("mem.new") + sec("vm.new") + sec("vm.load"),
		"vm.exec_s":         sec("vm.run"),
		"vm.ns_per_inst":    ratio(sec("vm.run")*1e9, c["vm.insts"]),
		"vm.jit.exec_share": ratio(c["vm.jit.exec_insts"], c["vm.insts"]),
		"vm.icache.chain_hit_rate": ratio(c["vm.icache.chain_hits"],
			c["vm.icache.chain_hits"]+c["vm.icache.chain_misses"]),
		"mem.tlb_hit_rate":    ratio(c["mem.tlb_hits"], c["mem.tlb_hits"]+c["mem.tlb_misses"]),
		"rtlib.runtime_new_s": sec("rtlib.runtime_new"),
		"rtlib.coverage":      ratio(c["rtlib.coverage_weighted"], c["rtlib.check_execs"]),
	}
	for _, m := range layerMetrics {
		if _, ok := v[m.name]; !ok {
			v[m.name] = c[m.name]
		}
	}
	return v
}
