GO ?= go

.PHONY: check fmt vet rfvet build test race perf-smoke trace-smoke replay-smoke obs-smoke edge-audit-smoke bench-smoke bench-history fuzz-smoke loc clean

# check is the tier-1 gate: formatting, static analysis (go vet plus the
# repo-specific rfvet rules), build, tests (which include the TLB perf
# smoke, see perf-smoke), a race-detector pass over the concurrent
# harness (short mode), the runpack replay smoke, the live introspection
# smoke, and the indirect-edge audit smoke.
check: fmt vet rfvet build test race replay-smoke obs-smoke edge-audit-smoke

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt: files need formatting:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# rfvet enforces repo conventions plain vet cannot: telemetry metric
# naming (<pkg>.<noun>.<verb>) and deterministic iteration in table and
# report emitters. See cmd/rfvet.
rfvet:
	$(GO) run ./cmd/rfvet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

# perf-smoke runs the host fast-path guards in isolation: the
# software-TLB access path must not be slower than the raw page-map walk,
# the superblock tier must beat the block interpreter by ≥20%, and the
# always-on flight recorder must stay within 3% of a bare hot loop
# (relative comparisons, so they are stable on loaded CI hosts), and the
# span-checked memcpy intrinsic must beat the per-access-checked guest
# loop by ≥5x in deterministic guest cycles, and a tiny hardened
# redfat.Run must stay within 64 KiB and 160 allocations of host memory
# per run (TestRunFixedCostBudget: allocation deltas are deterministic,
# so this per-run fixed-cost guard is absolute yet stable on loaded
# hosts). The same tests run as part of `make test` / `make check`;
# `-short` skips them.
perf-smoke:
	$(GO) test -run TestPerfSmokeTLB -v ./internal/mem/
	$(GO) test -run 'TestPerfSmokeJIT|TestPerfSmokeFlight' -v ./internal/vm/
	$(GO) test -run TestPerfSmokeLibcSpan -v ./internal/bench/
	$(GO) test -run TestRunFixedCostBudget -v .

# trace-smoke drives the forensics/profiling CLI flags end to end and
# validates that the emitted Chrome trace JSON and folded stacks parse.
# (The same test also runs as part of `make test` / `make check`.)
trace-smoke:
	$(GO) test -run TestCLITraceSmoke -v .

# replay-smoke exercises the runpack contract end to end: capture a
# detection run as a digest-signed pack, verify it, replay it to
# byte-identical reports and cycle counts, and prove every seeded tamper
# mode fails verification with its documented exit code. See DESIGN.md §13.
replay-smoke:
	$(GO) test -run 'TestCLIRunpackSmoke|TestVerifyDetectsTampering|TestRunPackVerifiesAndReplaysByteIdentical' -v . ./internal/runpack/

# obs-smoke exercises the live introspection surface: the golden-pinned
# endpoint formats, the flight-recorder semantics, and a scrape of all
# five endpoints on a live `rfvm -listen` process. See DESIGN.md §15.
obs-smoke:
	$(GO) test -run 'TestEndpoints|TestFlight|TestServerBeforePublish' -v ./internal/obs/
	$(GO) test -run TestCLIObsSmoke -v .

# edge-audit-smoke drives the indirect-flow recovery contract end to
# end: rfgen emits the switch-dense and broken-jump-table corpora,
# rfverify -edges audits every recovered edge on each original, full
# translation validation runs under both -noindirect settings, and every
# seeded unsound-edge mutant class must be rejected. See DESIGN.md §17.
edge-audit-smoke:
	$(GO) test -run TestCLIEdgeAuditSmoke -v .
	$(GO) test -run TestEdgeAudit -v ./internal/verify/

# bench-smoke regenerates a down-scaled Table 1 with JSON export, as a
# fast end-to-end exercise of the experiment harness.
bench-smoke:
	$(GO) run ./cmd/rfbench -table1 -scale 0.02 -json results/bench.json

# bench-history appends the current revision's down-scaled Table 1 +
# detection matrix to the trajectory series in results/history/ (and
# captures the same document as a verifiable runpack). Compare two
# entries with: rfbench ... -baseline results/history/BENCH_<rev>.json
bench-history:
	$(GO) run ./cmd/rfbench -table1 -table2 -scale 0.02 -progress=false \
		-runpack results/runpack-bench -history results/history

# fuzz-smoke runs each native fuzz target for a short fixed time: the ISA
# decoder (FuzzDecodeEncode), guest memory against its TLB-less reference
# (FuzzMemOps), the strict .rf.config decoder (FuzzDecodeConfig), the
# .rf.patch/.rf.origins and .rf.jt section-table decoders
# (FuzzDecodePatchTable, FuzzDecodeJumpTables), the RELF image codec
# (FuzzUnmarshal) and the runpack tarball reader (FuzzOpenTar). Not part
# of check, where
# `go test` already replays the seed corpora under testdata/fuzz/.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEncode$$' -fuzztime 10s ./internal/isa/
	$(GO) test -run '^$$' -fuzz '^FuzzMemOps$$' -fuzztime 10s ./internal/mem/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeConfig$$' -fuzztime 10s ./internal/redfat/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePatchTable$$' -fuzztime 10s ./internal/relf/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeJumpTables$$' -fuzztime 10s ./internal/relf/
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshal$$' -fuzztime 10s ./internal/relf/
	$(GO) test -run '^$$' -fuzz '^FuzzOpenTar$$' -fuzztime 10s ./internal/runpack/

# loc prints the root module's Go line counts, non-test and test, leaving
# out the e2ebench module and its build directory: the figure of merit
# of "same behaviour, least code" (ROADMAP aim 2). Not part of check.
GOFILES = find . -name '*.go' -not -path './e2ebench/*' -not -path './.bench_build/*'
loc:
	@echo "non-test: $$($(GOFILES) -not -name '*_test.go' -exec cat {} + | wc -l)"
	@echo "test:     $$($(GOFILES) -name '*_test.go' -exec cat {} + | wc -l)"

# clean removes generated, untracked outputs only: the bench-smoke JSON,
# the -guestprof folded stacks and the e2ebench build directory. The
# committed tables, results/history/ and results/runpack-bench/ stay.
clean:
	rm -rf results/bench.json results/guestprof .bench_build
