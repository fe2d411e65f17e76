# Development entry points. `make check` is what CI runs.

GO ?= go

# Every package with benchmarks: the root experiment benches (E1–E12),
# the script-engine kernels, the ORB invocation/pipelining suites (E13),
# the sharded-trader E14 suite, the metrics hot paths, and the
# internal/experiment macro benches (E16 SLO routing).
BENCHPKGS = . ./internal/script ./internal/orb ./internal/trading/... ./internal/metrics ./internal/experiment

# Knobs for bench-smoke, overridden by bench-regression/bench-baseline.
SMOKE_BENCHTIME ?= 1x
SMOKE_COUNT ?= 1

# Settings for the perf gate. Time-based benchtime so nanosecond-scale
# benches get millions of iterations while macro benches run a handful.
# The suite is run REGRESSION_PASSES separate times and benchdiff takes
# the min per bench across all passes — a transient CPU-steal burst on a
# shared runner hits consecutive benches within one pass, not the same
# bench in every pass. The ignore list excludes open-loop/concurrency/
# whole-simulation benches whose timings and allocation counts depend on
# scheduler and timer interleaving — those still run (bench-smoke covers
# breakage) but are not gated. TraderQuery1000Dynamic joined the list with
# PR 21: its 1000 resolutions outlast the serial budget and fan out over
# goroutines, and since a query no longer allocates per candidate those few
# scheduler-dependent allocations (11-20 per op) are all that is left to
# count.
REGRESSION_BENCHTIME ?= 50ms
REGRESSION_PASSES ?= 1 2 3
BENCH_IGNORE ?= OpenLoop|Concurrent|Oneway|RemoteQuery|LoadSharing|SLORouting|RelaxedRequery|EventVsPolling|Postponed|TCP|TraderQuery1000Dynamic
BENCH_BASELINE ?= bench_baseline.json

# Fuzz budget per target in `make chaos`; nightly CI raises it to 5m.
FUZZTIME ?= 10s

.PHONY: check vet build test race bench bench-smoke bench-regression bench-baseline aabench aabench-pairs chaos loc

check: vet build race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run xxx -bench . -benchmem $(BENCHPKGS)

# One iteration of every benchmark: catches benches that break (compile
# errors, Fatal paths) without paying for stable numbers. CI runs this.
bench-smoke:
	$(GO) test -run xxx -bench . -benchmem -benchtime=$(SMOKE_BENCHTIME) -count=$(SMOKE_COUNT) $(BENCHPKGS)

# Perf gate: re-run the bench suite and compare ns/op (+15% budget,
# machine-speed rescaled) and allocs/op (any increase fails) against the
# committed baseline. CI runs this on every PR; the delta table lands in
# the job summary.
# On failure, one retry pass is min-merged in before the final verdict:
# extra samples can clear a noise-induced false positive but can never
# mask a real regression (the min cannot drop below the code's true
# speed).
bench-regression:
	rm -f bench_new_*.txt
	for i in $(REGRESSION_PASSES); do \
		$(MAKE) --no-print-directory bench-smoke SMOKE_BENCHTIME=$(REGRESSION_BENCHTIME) > bench_new_$$i.txt || exit 1; \
	done
	$(GO) run ./cmd/benchdiff -baseline $(BENCH_BASELINE) -ignore '$(BENCH_IGNORE)' -md benchdiff.md bench_new_*.txt || ( \
		echo "bench-regression: retrying once to rule out runner noise" && \
		$(MAKE) --no-print-directory bench-smoke SMOKE_BENCHTIME=$(REGRESSION_BENCHTIME) > bench_new_retry.txt && \
		$(GO) run ./cmd/benchdiff -baseline $(BENCH_BASELINE) -ignore '$(BENCH_IGNORE)' -md benchdiff.md bench_new_*.txt )

# Refresh the committed baseline after an intentional perf change.
bench-baseline:
	rm -f bench_new_*.txt
	for i in $(REGRESSION_PASSES); do \
		$(MAKE) --no-print-directory bench-smoke SMOKE_BENCHTIME=$(REGRESSION_BENCHTIME) > bench_new_$$i.txt || exit 1; \
	done
	$(GO) run ./cmd/benchdiff -write -o $(BENCH_BASELINE) -ignore '$(BENCH_IGNORE)' bench_new_*.txt

# The repository benchmark (BENCHMARK.json, benchmark/): a short pass over
# all five workloads, which exits non-zero if a per-op oracle fails, then
# the benchmark module's own tests. CI's bench-smoke job runs it.
aabench:
	bash benchmark/run.sh --workload all --seconds 5
	cd benchmark && $(GO) test ./...

# Before/after numbers for a PR that claims a gain: PAIRS pairs of full
# benchmark runs, commit PARENT (unpacked from `git archive` into a temporary
# directory) against the working tree, same seed within a pair, first side
# alternating, medians and quartiles printed and written to BENCH_$(N).json.
# Seeds default to $(N)01 onwards, so each PR measures on seeds no earlier
# PR or development run has used. Ten 20 s pairs take about 40 minutes.
#
#	make aabench-pairs N=23 PARENT=3e67d4c CLAIM=adapt_cycle.op_x
PARENT ?= HEAD
PAIRS ?= 10
SECONDS ?= 20
N ?= 0
SEED ?= $(N)01
CLAIM ?=
aabench-pairs:
	$(GO) run ./cmd/benchpairs -parent $(PARENT) -pairs $(PAIRS) -seconds $(SECONDS) -seed $(SEED) -claim '$(CLAIM)' -o BENCH_$(N).json

# Non-test Go lines per package under internal/ and cmd/, and their total:
# the one command the size bars in ROADMAP.md and the PR descriptions quote.
# CI's vet job appends it to the job summary.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' -exec wc -l {} + | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		     END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", t }' | sort -k2

# Hostile-input and overload robustness suites (PR 8): admission control
# under request storms, budget sandboxing of shipped scripts (including
# the hostile differential corpus, run on both engines), script/aspect/
# strategy quarantine, the wire fuzz properties plus a short run of the
# native fuzzers — including the VM/tree-walker differential fuzzer — and
# the E15 governed-vs-ungoverned overload experiment.
chaos:
	$(GO) test -count=1 -run 'Admission|Overloaded|LegacySpill' ./internal/orb
	$(GO) test -count=1 -run 'Budget|CallCtx|MemBudget|Differential|DeepRecursion' ./internal/script
	$(GO) test -count=1 -run 'Quarantine|OrdinaryScriptErrors' ./internal/monitor ./internal/core
	$(GO) test -count=1 -run 'Property|Decode|Frame|Truncat|Overloaded' ./internal/wire
	$(GO) test -count=1 -run '^$$' -fuzz FuzzDecodeMessage -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -count=1 -run '^$$' -fuzz FuzzCompileResolve -fuzztime $(FUZZTIME) ./internal/script
	$(GO) test -count=1 -run '^$$' -fuzz FuzzVMDiff -fuzztime $(FUZZTIME) ./internal/script
	$(GO) test -count=1 -run 'Overload|HostileQuarantine' ./internal/experiment
