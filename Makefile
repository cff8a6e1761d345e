# Convenience targets for the noceval repository. Everything is plain
# `go` underneath; these just capture the common invocations.

GO ?= go

.PHONY: all build vet fmt-check lint test bench-check bench-digest race fuzz-smoke golden golden-update digests-update results-check check bench bench-compare bench-pair bench-claim obs-smoke screen-smoke qos-smoke serve-smoke figures figures-full ablations examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail if any file is not gofmt-formatted (prints the offenders).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Staticcheck's correctness checks (the SA family). Skips gracefully when
# the binary is absent so `make check` works on a bare toolchain; CI
# installs it and runs the same invocation.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck -checks 'SA*' ./...; \
	else \
		echo "staticcheck not installed; skipping lint (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

test:
	$(GO) test ./...

# The repo benchmark (bench/, BENCHMARK.json) is a separate module built
# against this tree, invisible to `./...`: vet it and run its tiny-scale
# tests so an API change that breaks it fails here, not in a benchmark run.
bench-check:
	cd bench && $(GO) vet . && $(GO) test -count=1 .

# Simulated-result gate: one short untraced pass of each simulation
# workload of the repo benchmark at seed 1, failing when a result digest
# differs from bench/expected_digests.json or an operation fails — a
# speed-up that moved a simulated number stops here, before the benchmark
# driver sees it. ~1 min; service_mix has no digest of its own (its cold
# jobs are these simulations).
DIGEST_WORKLOADS = sat_mesh8x8 sat_mesh16x16 idle_openloop idle_batch_tail exec_canneal sweep_knee
bench-digest:
	@for w in $(DIGEST_WORKLOADS); do \
		out="$$(bash bench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 2>&1)" || { echo "$$out"; exit 1; }; \
		if echo "$$out" | grep -q -e 'DIGEST_CHANGED: true' -e '"correct":false'; then \
			echo "$$out"; echo "bench-digest: $$w moved a simulated result"; exit 1; \
		fi; \
		echo "bench-digest: $$w $$(echo "$$out" | grep result_digest)"; \
	done

race:
	$(GO) test -race ./...

# Coverage-guided fuzz smoke: 30s per target over the parsers, the
# cache-key canonicalization, the varint latency sample against the
# sorted []uint32 and float64 statistics it replaced, the register-held
# Bernoulli scan against the Bernoulli loop, the CMP cache against the
# tick-stamped LRU it replaced, the record source queue against the
# per-flit FIFO it replaced, the router's one-VC path (its lone pass
# included) against the general compute phases over fuzzed VCs, depths,
# arbiters, classes, rates and packet sizes, and the engine-driven trace
# replay against the stepped loop it replaced over fuzzed event gaps, packet
# sizes, router delays and cycle limits (go fuzzing allows one -fuzz target
# per invocation, hence the sequence). FUZZTIME=10s make fuzz-smoke for a
# quicker local pass.
FUZZTIME ?= 30s
fuzz-smoke:
	$(GO) test ./internal/topology -fuzz=FuzzByName -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/expcache -fuzz=FuzzKeyCanonicalization -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/expcache -fuzz=FuzzKeyConfigSensitivity -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core -fuzz=FuzzParseSpec -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core -fuzz=FuzzClassSpec -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/stats -fuzz=FuzzLatencies -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sim -fuzz=FuzzNextBernoulli -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/cmp -fuzz=FuzzCacheMatchesTickLRU -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/network -fuzz=FuzzSourceQueue -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/router -fuzz=FuzzOneVCPathMatchesGeneralPath -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/trace -fuzz=FuzzReplayMatchesSteppedLoop -fuzztime=$(FUZZTIME)

# Golden-figure regression gate: regenerate the golden subset and compare
# against the committed CSVs in results/golden (see cmd/figures/golden_test.go).
golden:
	$(GO) test ./cmd/figures -run TestGoldenFigures -count=1 -v

# Rewrite the committed goldens after a deliberate simulator change.
# Review the resulting diff before committing.
golden-update:
	$(GO) run ./cmd/figures -golden -out results/golden

# Re-record the three committed digest files (root testdata/event_digests.json,
# internal/network/testdata/stepping_digests.json,
# internal/closedloop/testdata/batch_digests.json) from this tree, after a
# deliberate change to what the simulator computes. They are checked by
# `go test ./...`; a refactor of the cycle loop must leave them untouched.
# Review the resulting diff before committing.
digests-update:
	$(GO) test -count=1 -run 'EventDigests|ActiveSetDeterminism|TestQoSCrossEngineDeterminism|TestQoSFaultInvariants' . -update-event-digests
	$(GO) test -count=1 -run TestActiveSetMatchesFullScan ./internal/network -update-stepping-digests
	$(GO) test -count=1 -run TestBatchDigestsAcrossCommits ./internal/closedloop -update-batch-digests

# Committed-results gate: regenerate results/ into a temp dir with
# `figures -all -screen` (one build, one run) and cmp every file written
# against its committed copy, then fail on any committed file outside
# results/golden/ that the run did not write (`git ls-files`, so the
# untracked results/bench-*.txt are ignored). -screen is result-neutral
# (screen-smoke) and shortens the run. The run keeps a ledger; the gate
# prints its completed simulation runs per kind and fails if it holds no
# exec run or if a completed run that was not a cache hit repeats a run
# key: one invocation simulates each distinct run once. The one exception
# is the heatmap's observed batch run, which re-simulates a run of the
# ablations to sample telemetry; its key is read from a ledger of
# `figures -id heatmap`. About 4 minutes of simulation on 2 vCPUs; CI's
# results-check job runs it on every push.
# RESULTS_IDS="fig03 analytic-corr" make results-check regenerates only
# those generator ids (seconds to a minute each) and skips the
# not-written and repeated-run steps.
RESULTS_IDS ?=
results-check:
	@tmp="$$(mktemp -d)"; trap 'rm -rf "$$tmp"' EXIT; mkdir "$$tmp/out"; \
	$(GO) build -o "$$tmp/figures" ./cmd/figures || exit 1; \
	if [ -z "$(RESULTS_IDS)" ]; then \
		"$$tmp/figures" -all -screen -ledger "$$tmp/runs.jsonl" -out "$$tmp/out" >/dev/null || exit 1; \
	else \
		for id in $(RESULTS_IDS); do \
			"$$tmp/figures" -id $$id -screen -out "$$tmp/out" >/dev/null || exit 1; \
		done; \
	fi; \
	fail=0; \
	for f in "$$tmp"/out/*; do \
		name="$$(basename "$$f")"; \
		if cmp -s "$$f" "results/$$name"; then echo "results-check: $$name identical"; \
		else echo "results-check: $$name DIFFERS from results/$$name"; fail=1; fi; \
	done; \
	if [ -z "$(RESULTS_IDS)" ]; then \
		for f in $$(git ls-files results | grep -v '^results/golden/'); do \
			[ -e "$$tmp/out/$${f#results/}" ] || { echo "results-check: $$f is committed but figures -all did not write it"; fail=1; }; \
		done; \
		"$$tmp/figures" -id heatmap -ledger "$$tmp/observed.jsonl" -out "$$tmp/heat" >/dev/null || exit 1; \
		grep -o '"spec":"[0-9a-f]*"' "$$tmp/observed.jsonl" > "$$tmp/observed.keys"; \
		grep -v -e '"kind":"sweep"' -e '"err":' -e '"hit":true' "$$tmp/runs.jsonl" > "$$tmp/done.jsonl"; \
		counts=""; for k in openloop batch barrier exec; do counts="$$counts $$k $$(grep -c "\"kind\":\"$$k\"" "$$tmp/done.jsonl")"; done; \
		n="$$(grep -c '"kind":"exec"' "$$tmp/done.jsonl")"; \
		rep="$$(grep -o '"spec":"[0-9a-f]*"' "$$tmp/done.jsonl" | sort | uniq -d | grep -vxF -f "$$tmp/observed.keys" | wc -l)"; \
		echo "results-check: completed runs:$$counts; $$rep run keys simulated more than once (heatmap's observed run excepted)"; \
		if [ "$$n" -eq 0 ] || [ "$$rep" -ne 0 ]; then fail=1; fi; \
	fi; \
	exit $$fail

# Metrics-endpoint smoke: start the live exporter against a real cached
# sweep, scrape /metrics, and validate the Prometheus exposition format
# plus the cross-run counters (see internal/obs/export/export_test.go).
obs-smoke:
	$(GO) test ./internal/obs/export -run TestMetricsEndpointSmoke -count=1 -v

# Screening-soundness smoke: regenerate the golden figure subset and the
# ablations report (whose A6 runs a saturation search) twice on this
# machine — once unscreened, once with analytic screening — and require
# the outputs to be byte-identical. This is the hard screening contract
# (screening decides whether a point simulates, never what a simulation
# computes); the committed goldens are compared separately, with
# tolerances, by the golden gate.
screen-smoke:
	@rm -rf /tmp/noceval-screen-off /tmp/noceval-screen-on
	$(GO) run ./cmd/figures -golden -out /tmp/noceval-screen-off
	$(GO) run ./cmd/figures -id ablations -out /tmp/noceval-screen-off
	$(GO) run ./cmd/figures -golden -screen -out /tmp/noceval-screen-on
	$(GO) run ./cmd/figures -id ablations -screen -out /tmp/noceval-screen-on
	diff -r /tmp/noceval-screen-off /tmp/noceval-screen-on
	@echo "screen-smoke: screened and unscreened golden figures and ablations are byte-identical"

# QoS smoke: the tiny two-class gates — at the low-priority class's
# saturation knee the high-priority p99 must stay below the low-priority
# p99 (priority protection), and the priority-queueing estimator must
# track the simulated per-class curves pre-saturation. QoS is opt-in, so
# the class-free golden figures must stay byte-stable; the golden gate
# re-runs here to enforce that pairing explicitly.
qos-smoke:
	$(GO) test ./cmd/figures -run 'TestQoSPriority' -count=1 -v
	$(GO) test . -run 'TestQoS' -count=1
	$(GO) test ./cmd/figures -run TestGoldenFigures -count=1

# Experiment-service smoke: boot nocd with cache + ledger, drive it with
# nocload (prime, coalescing burst, cached throughput gate at >= 100
# req/s), assert the coalesce and cache-hit counters via /metrics, and
# require a clean SIGTERM drain. MIN_RPS=50 make serve-smoke to loosen
# the gate on a slow machine.
serve-smoke:
	./scripts/serve-smoke.sh

# Tier-1 gate: everything that must stay green. The golden regression
# test runs as part of `test` (cmd/figures); `golden` re-runs it verbosely.
check: build vet fmt-check lint test bench-check bench-digest race obs-smoke screen-smoke qos-smoke serve-smoke examples

# One testing.B per paper table/figure; each reports its headline metric.
bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# Mode-vs-mode comparisons inside one commit, 5 runs each: the idle-heavy
# benchmarks (raw runs only — the full-scan loop they were once paired with
# is gone), 1 vs 4 shards, screening off vs on. Sub-benchmark results are
# split into two files with a common benchmark name so benchstat can pair
# them; when benchstat is not installed the raw per-run numbers are still
# left in results/.
bench-compare:
	@mkdir -p results
	$(GO) test -run '^$$' -bench 'IdleOpenLoopLowLoad|IdleBatchTail' -benchtime=10x -count=5 . | tee results/bench-idle.txt
	$(GO) test -run '^$$' -bench 'ShardScaling' -benchtime=3x -count=5 . | tee results/bench-shards.txt
	@grep 'shards=1-' results/bench-shards.txt | sed 's|/shards=1||' > results/bench-shards-seq.txt
	@grep 'shards=4-' results/bench-shards.txt | sed 's|/shards=4||' > results/bench-shards-par.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat results/bench-shards-seq.txt results/bench-shards-par.txt; \
	else \
		echo "benchstat not installed: raw runs left in results/bench-shards-seq.txt and results/bench-shards-par.txt"; \
	fi
	$(GO) test -run '^$$' -bench 'SweepScreening' -benchtime=3x -count=5 . | tee results/bench-screen.txt
	@grep 'screen=off' results/bench-screen.txt | sed 's|/screen=off||' > results/bench-screen-off.txt
	@grep 'screen=on' results/bench-screen.txt | sed 's|/screen=on||' > results/bench-screen-on.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat results/bench-screen-off.txt results/bench-screen-on.txt; \
	else \
		echo "benchstat not installed: raw runs left in results/bench-screen-off.txt and results/bench-screen-on.txt"; \
	fi

# The performance gate: the repo benchmark (bench/, BENCHMARK.json), all
# seven workloads, on the base ref and then on the working tree, back to
# back on this host, judged by bench/'s own -compare (bench/compare.go).
# Nothing is compared with a number measured on another host or at another
# time. The recipe ends with -compare's status: 0 all ok, 1 regressed,
# 3 unresolved at worst; 2 = a side did not build or run (a run that only
# fails an operation still leaves its result file for -compare to count).
# The base ref is a git worktree under .bench_build/base, removed on exit,
# also on failure; the two result files and the verdict table stay in
# .bench_build/. Minutes long and host-bound, so not part of `check`.
# `make bench-pair BASE=HEAD` judges uncommitted work against the last commit.
# BASE_DIR=<an existing checkout> (a git clone or a `git archive` copy)
# is the base instead of BASE: no worktree is made or removed, and that
# directory is left in place. Both bench-pair and bench-claim take it.
BASE ?= HEAD~1
BASE_DIR ?=
bench-pair:
	@out="$(CURDIR)/.bench_build"; base="$$out/base"; mkdir -p "$$out"; \
	rm -f "$$out/pair-base.json" "$$out/pair-head.json" "$$out/pair-verdict.txt"; \
	trap 'exit 130' INT TERM; \
	if [ -n "$(BASE_DIR)" ]; then \
		base="$(BASE_DIR)"; [ -f "$$base/bench/run.sh" ] || { echo "bench-pair: BASE_DIR $$base holds no bench/run.sh"; exit 2; }; \
		rev="$$([ -e "$$base/.git" ] && git -C "$$base" rev-parse --short HEAD || echo not a git checkout)"; \
		echo "bench-pair: base $$base ($$rev)"; \
	else \
		trap 'git worktree remove --force "$$base"' EXIT; \
		git worktree add --detach "$$base" "$(BASE)" >/dev/null || exit 2; \
	fi; \
	(cd "$$base" && bash bench/run.sh -seed 1 -out "$$out/pair-base.json") || [ -s "$$out/pair-base.json" ] || exit 2; \
	bash bench/run.sh -seed 1 -out "$$out/pair-head.json" || [ -s "$$out/pair-head.json" ] || exit 2; \
	st=0; bash bench/run.sh -compare "$$out/pair-base.json" "$$out/pair-head.json" > "$$out/pair-verdict.txt" || st=$$?; \
	cat "$$out/pair-verdict.txt"; exit $$st

# The runs a speed claim rests on: PAIRS alternating pairs of BASE and the
# working tree on one workload of the repo benchmark, unseen seeds 101…, each
# run the benchmark's own ten seconds; per pair the five end-to-end metrics,
# then wins, medians and quartiles per side (scripts/bench-claim.sh). The
# report stays in .bench_build/claim-$(WORKLOAD).txt. About 25 s a pair and
# host-bound, so not part of `check`.
#   make bench-claim WORKLOAD=idle_batch_tail
PAIRS ?= 10
bench-claim:
	@[ -n "$(WORKLOAD)" ] || { echo "usage: make bench-claim WORKLOAD=<a BENCHMARK.json workload> [PAIRS=10] [BASE=HEAD~1 | BASE_DIR=<checkout>]"; exit 2; }
	BASE_DIR="$(BASE_DIR)" ./scripts/bench-claim.sh "$(WORKLOAD)" "$(PAIRS)" "$(BASE)"

# Regenerate every paper figure and table into results/.
figures:
	$(GO) run ./cmd/figures -all

# Paper-scale parameters (slow).
figures-full:
	$(GO) run ./cmd/figures -all -full

ablations:
	$(GO) run ./cmd/figures -id ablations

# The example programs, then every JSON spec under examples/specs through
# `noceval run` (one build; a few seconds in all).
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/designspace
	$(GO) run ./examples/fullsystem
	$(GO) run ./examples/correlation
	$(GO) run ./examples/tracereplay
	$(GO) run ./examples/telemetry
	@for f in examples/specs/*.json; do \
		echo "$(GO) run ./cmd/noceval run -config $$f"; \
		$(GO) run ./cmd/noceval run -config "$$f" || exit 1; \
	done

# Remove untracked build outputs only: the benchmark's build directory
# and the command binaries `go build ./cmd/<name>` drops in the repo root.
# results/ is committed (results/golden/ feeds TestGoldenFigures).
clean:
	rm -rf .bench_build
	rm -f figures nocd noceval nocload
