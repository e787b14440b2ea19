GO ?= go

.PHONY: all build vet fmt-check lint test race race-hammer fuzz short bench bench-test check cover chaos assess frontier examples cli

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt-check fails (listing the offenders) when any file diverges from
# gofmt; it never rewrites anything, so it is safe as a CI gate.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# pbcheck is the repository's own stdlib-only static-analysis suite
# (see internal/analysis): determinism, nopanic, floateq, errdiscard,
# ctxflow, hotalloc, leakygo, purity, lockflow, errflow —
# interprocedural via a module-wide call-graph fact fixpoint, with the
# last two flow-sensitive over a per-function CFG. Exit 1 means an
# unsuppressed finding. The one way to accept a finding is a reasoned
# //pbcheck:ignore <rule> <reason> on its line; a waiver that stops
# suppressing anything is itself reported as stale.
lint:
	$(GO) run ./cmd/pbcheck ./...

test:
	$(GO) test ./...

# The concurrency tests (runner cancellation draining and worker-pool
# scheduling, concurrent campaign workers contending for leases and
# shard ledgers) must pass under the race detector; this is the CI
# gate.
race:
	$(GO) test -race ./...

# race-hammer is the repository's race check: it repeats the concurrent
# substrate's tests (runner fan-out, distributed leases/ledgers,
# observability, sampling, the shared trace tape memo, the simulator's
# free list of cache arrays, pbcheck's loader, which discovers and
# type-checks packages on every CPU) under the race detector with
# -count=3 so scheduling-dependent interleavings that a single pass can
# miss get three chances to bite. The log lands in
# $(RACE_ARTIFACTS) and is uploaded by the CI race-hammer job.
RACE_ARTIFACTS ?= out/race-hammer
race-hammer:
	mkdir -p $(RACE_ARTIFACTS)
	$(GO) test -race -count=3 ./internal/runner/... ./internal/obs/ ./internal/sampling/ ./internal/trace/ ./internal/sim/... ./internal/analysis/ 2>&1 | tee $(RACE_ARTIFACTS)/race.log
	@! grep -qE '^(FAIL|--- FAIL)|WARNING: DATA RACE' $(RACE_ARTIFACTS)/race.log || { echo "race-hammer: failures in $(RACE_ARTIFACTS)/race.log"; exit 1; }

# fuzz runs every native fuzz target (stdlib testing.F) for FUZZTIME
# each: the on-disk decoders that must never panic or accept a torn
# record — shard ledger, campaign manifest, the campaign fingerprint
# and sampling spec — the enhancement label parser behind
# -enhance, which accepts only canonical labels of valid enhancements,
# the fully-associative cache index, which
# must match a scan of every way under any operation stream, and
# pbcheck's standard-library purge, which must keep every newline and
# every top-level declaration of source that parses.
# The CI race-hammer job runs it.
FUZZTIME ?= 10s
FUZZ_TARGETS = ./internal/runner/dist:FuzzReadLedger ./internal/runner/dist:FuzzOpenManifest \
	./internal/experiment:FuzzParseFingerprint ./internal/sampling:FuzzParseSpec \
	./internal/enhance:FuzzParseSpec ./internal/sim/cache:FuzzFullyAssociative \
	./internal/analysis:FuzzPurgeBodies
fuzz:
	@for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t##*:}; \
		echo "fuzz $$pkg $$fn"; \
		$(GO) test $$pkg -run '^$$' -fuzz "^$$fn\$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

short:
	$(GO) test -short ./...

# chaos drives the kill/restart/resume loop of the distributed
# execution layer under the race detector: workers die at injected
# crash points, leases expire and are stolen, shard ledgers are torn
# mid-line — and the merged campaign must render Table 9 byte-identical
# to a sequential run. Artifacts (convergence log, merged ledger and
# table) land in $(CHAOS_ARTIFACTS).
CHAOS_ARTIFACTS ?= out/chaos
chaos:
	mkdir -p $(CHAOS_ARTIFACTS)
	CHAOS_ARTIFACTS=$(abspath $(CHAOS_ARTIFACTS)) $(GO) test -race -count=1 -run Chaos -v ./internal/runner/dist/ | tee $(CHAOS_ARTIFACTS)/chaos.log

# bench runs the repository benchmark (bench/, declared in
# BENCHMARK.json): every workload in interleaved rounds plus one traced
# rep each, written to bench/out/result.json. Compare two commits with
# `bash bench/run.sh compare OLD.json NEW.json` (see bench/README.md).
bench:
	bash bench/run.sh

# bench-test builds, vets and tests the benchmark module against the
# root module, so a root API change cannot silently break it. It runs
# offline; the CI bench job runs it.
bench-test:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# examples runs every program under examples/ end to end (about 10 s
# in all), so a change that builds but breaks a walkthrough fails.
# Each program's stdout is kept in $(EXAMPLES_OUT). resilientrun checks
# its own fault-injection and resume accounting and exits 1 on a
# mismatch; it then runs a second time, and the two stdouts must be
# byte-identical (its timings go to stderr). The CI check job runs it.
EXAMPLES_OUT ?= out/examples
examples:
	@mkdir -p $(EXAMPLES_OUT)
	@for d in examples/*/; do \
		name=$$(basename $$d); \
		echo "== $$d"; \
		$(GO) run ./$$d > $(EXAMPLES_OUT)/$$name.txt; st=$$?; \
		cat $(EXAMPLES_OUT)/$$name.txt; \
		[ $$st -eq 0 ] || exit 1; \
	done
	@echo "== examples/resilientrun/ again: its stdout must not change"
	@$(GO) run ./examples/resilientrun > $(EXAMPLES_OUT)/resilientrun.rerun.txt
	@cmp $(EXAMPLES_OUT)/resilientrun.txt $(EXAMPLES_OUT)/resilientrun.rerun.txt || { echo "examples: resilientrun stdout differs between runs"; exit 1; }

# cli builds the simulating CLIs (pbrank, pbworker, pbenhance,
# pbclassify, simrun, tablegen) and drives each at -n 2000: in-memory,
# fresh-campaign and resumed-campaign runs must print the same bytes,
# full and sampled, as must -par 1 and -par 2 and a default flag and
# its spelled-out value; a changed -benchmarks on a finished campaign
# must exit 1, and every refused flag must exit 2. The CI check job
# runs it.
cli:
	bash scripts/cli-smoke.sh

# Coverage profile plus a per-package summary; enforces floors for the
# packages the campaign engine leans on hardest (obs, stats, runner).
cover:
	bash scripts/cover.sh coverage.out

# frontier measures the accuracy-vs-speed frontier of sampled
# simulation at full Table 9 scale (13 benchmarks, 88 configurations,
# 100k instructions/run): full suite as ground truth, then each
# estimator with the tuned sampling spec. pbfrontier exits non-zero
# when any estimator's Spearman rank correlation against the full
# ordering falls below 0.95, which is the CI gate. Artifacts (text,
# JSON, markdown step summary) land in $(FRONTIER_ARTIFACTS).
FRONTIER_ARTIFACTS ?= out/frontier
FRONTIER_FLAGS ?= -n 100000 -warmup 30000 -sample region=2000,frac=0.08,fwarm=24000,seed=1
frontier:
	mkdir -p $(FRONTIER_ARTIFACTS)
	$(GO) run ./cmd/pbfrontier $(FRONTIER_FLAGS) \
		-json-out $(FRONTIER_ARTIFACTS)/frontier.json \
		-md-out $(FRONTIER_ARTIFACTS)/frontier.md \
		| tee $(FRONTIER_ARTIFACTS)/frontier.txt

# assess runs the methodology shoot-out: PB, foldover PB,
# one-at-a-time, and the full factorial screened against synthetic
# ground-truth surfaces, scored for rank recovery and critical-set
# recall. The seeded smoke campaign is small enough for CI; the trust
# report (text + JSON artifact) lands in $(ASSESS_ARTIFACTS). The
# output is bit-identical for any worker count.
ASSESS_ARTIFACTS ?= out/assess
ASSESS_FLAGS ?= -n 40 -k 9 -critical 3 -snr 10 -seed 1
assess:
	mkdir -p $(ASSESS_ARTIFACTS)
	$(GO) run ./cmd/pbassess $(ASSESS_FLAGS) -json-out $(ASSESS_ARTIFACTS)/trust.json | tee $(ASSESS_ARTIFACTS)/trust.txt

check: build vet fmt-check lint race
