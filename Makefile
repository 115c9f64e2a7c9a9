# Tier-1 gate and friends. `make check` is what CI (and reviewers) run.

GO ?= go

.PHONY: check check-race build vet test race sched-smoke serve-smoke subjects-smoke dist-smoke fastmon-smoke sweeps bench bench-reduction bench-serve bench-telemetry bench-generate bench-dist bench-fastmon fuzz clean

check: build vet test sched-smoke serve-smoke subjects-smoke dist-smoke fastmon-smoke fuzz

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-enabled pass over the packages that actually spin up goroutines:
# the scheduler, the core checkers (parallel RandomCheck workers), the
# fault-injection containment harness, and the monitor (parallel partition
# search). -short skips the long sweeps.
race:
	$(GO) test -race -short ./internal/sched ./internal/core ./internal/faultinject ./internal/monitor ./internal/serve ./internal/bench

# Race-enabled smoke of the scheduler's baton passing: scheduling decisions
# run on whichever thread goroutine holds the baton, so the watchdog and
# abandonment paths, the carrying of controller panics to the Run goroutine,
# and the pinned decision traces (five full explorations) run under the race
# detector on every `make check`.
sched-smoke:
	$(GO) test -race -run 'TestWatchdog|TestAbandoned|TestControllerPanic|TestDecisionTrace' ./internal/sched

# Race-enabled smoke of the streaming service: the full internal/serve suite
# (worker pool, backpressure, checkpoint/resume, HTTP ingest) plus the bench
# load generator in its quick mode. Part of `make check`: the service is the
# one subsystem whose whole job is cross-goroutine handoff.
serve-smoke:
	$(GO) test -race -run 'TestServe' ./internal/serve ./internal/bench

# Race-enabled smoke of the Go-native subject corpus: the directed
# strict/Pre/Relaxed verdict tests for every family under the real Go race
# detector, so a corpus subject whose synchronization is broken at the Go
# level (not just at the modeled vsync level) fails loudly. Part of
# `make check`.
subjects-smoke:
	$(GO) test -race -run 'TestRegistry|TestStrictSubjectsPass|TestPreSubjectsFail|TestRelaxedSubjects' ./internal/subjects

# Race-enabled smoke of the fault-tolerant distributed coordinator: the full
# internal/dist suite (lease grants/expiry, randomized worker crash/hang/stall
# injection, coordinator crash resume, poisoning) plus the bench scaling gate
# in its quick mode — a small class at 3 workers with one injected worker
# kill, merged result required bit-identical to the sequential check. Part of
# `make check`: the coordinator is pure cross-goroutine handoff.
dist-smoke:
	$(GO) test -race -run 'TestDist' ./internal/dist ./internal/bench

# Smoke of the specialized fast monitors: the full internal/monitor/fast
# suite, the explorer-driven bit-identity property suite (fast+fallback vs
# WGL vs the naive search vs the phase-1 spec), the WitnessFast end-to-end
# path, and the crossover benchmark in its quick mode. Part of `make check`:
# the fast monitors must never disagree with the search they replace.
fastmon-smoke:
	$(GO) test ./internal/monitor/fast
	$(GO) test -run 'TestFastBackendBitIdentical|TestFastWitnessEndToEnd|TestFastmon' ./internal/bench

# Short coverage-guided fuzz pass over the external input parsers (the batch
# JSONL trace reader, the incremental stream reader, and the binary batch
# frame codec), the test-matrix mutator (well-formedness + schedule
# replayability of every mutant) and the specification trie (against a
# map-based reference); the seed corpus plus a few seconds of mutation on
# every `make check` keeps crash regressions out of the hot paths.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzSpec -fuzztime=5s ./internal/history
	$(GO) test -run='^$$' -fuzz=FuzzReadTrace -fuzztime=5s ./internal/obsfile
	$(GO) test -run='^$$' -fuzz=FuzzStreamReader -fuzztime=5s ./internal/obsfile
	$(GO) test -run='^$$' -fuzz=FuzzBatchFrame -fuzztime=5s ./internal/obsfile
	$(GO) test -run='^$$' -fuzz=FuzzMutate -fuzztime=5s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzFastMonitor -fuzztime=5s ./internal/monitor/fast

# Full race-enabled pass over every package (much slower than `race`;
# exercises the prefix-sharded parallel explorer end to end). The bench
# sweeps run for several minutes even uninstrumented, hence the timeout.
check-race:
	$(GO) test -race -timeout=60m ./...

# `make check` (via the test target) also runs the telemetry-overhead smoke
# benchmark (TestTelemetryOverheadBaseline in its quick mode): a
# milliseconds-scale off-vs-on pair that proves the instrumentation
# machinery and the observe-only contract on every tier-1 run.
bench: bench-telemetry sweeps
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

# The five RandomCheck sweeps over the whole class registry at the paper's
# 3x3 size (about three minutes on two CPUs). Plain `go test ./...` runs them
# on a fixed smoke subset of classes; LINEUP_BENCH_FULL=1 lifts that. The -run
# filter matters: the same variable switches every Test*Baseline runner into
# its multi-minute full mode.
sweeps:
	LINEUP_BENCH_FULL=1 $(GO) test -run 'TestRandomCheckFindsSeededBugs|TestRandomCheckCleanClassesPass|TestRelaxedBagRandomSweep|TestRandomCheckFindsIntentionalCauses|TestTelemetryObserveOnlyRandomCheck' -timeout=30m ./internal/bench

# Regenerate the kind=="reduction" rows of BENCH_lineup.json: the full
# full-vs-reduced sweep over every directed cause case (bounded plus
# unbounded passes). Fails without writing if any class's verdict drifts
# from the committed baseline. The quick smoke subset of the same test runs
# on every `make check` via `go test ./...`.
bench-reduction:
	LINEUP_BENCH_FULL=1 LINEUP_UPDATE_BENCH=1 $(GO) test -run=TestReductionBaseline -v -timeout=30m ./internal/bench

# Regenerate the kind=="serve" rows of BENCH_lineup.json: two row families.
# TestServeBaseline measures end-to-end checking throughput (>=1.2M checked
# operations per run, at 1 and 4 checker workers); TestServeIngestBaseline
# measures the ingest path alone (checker pool held parked) over jsonl-vs-
# batch wire encodings at 1 and 4 concurrent connections, gated on batch x 4
# clearing 3x the single-connection JSONL rate. Fails without writing if any
# verdict drifts from linearizable or the event accounting does not balance.
bench-serve:
	LINEUP_BENCH_FULL=1 LINEUP_UPDATE_BENCH=1 $(GO) test -run='TestServeBaseline|TestServeIngestBaseline' -v -timeout=30m ./internal/bench

# Regenerate the kind=="telemetry" rows of BENCH_lineup.json: telemetry
# off-vs-on wall times of the -scale workload (~80k schedules) at 1 and 4
# workers, best-of-3, gated at the acceptance overhead ceiling. Fails
# without writing if enabling the collector changes any verdict or count.
bench-telemetry:
	LINEUP_BENCH_FULL=1 LINEUP_UPDATE_BENCH=1 $(GO) test -run=TestTelemetryOverheadBaseline -v -timeout=30m ./internal/bench

# Regenerate the kind=="generate" rows of BENCH_lineup.json: coverage-guided
# generation vs uniform random sampling on every defect-seeded subject of the
# Go-native corpus, same seed and test budget, recording tests-to-first-
# violation and wall time. Fails without writing if the guided strategy
# misses any seeded bug within the budget. The quick smoke subset of the same
# test runs on every `make check` via `go test ./...`.
bench-generate:
	LINEUP_BENCH_FULL=1 LINEUP_UPDATE_BENCH=1 $(GO) test -run=TestGenerateBaseline -v -timeout=30m ./internal/bench

# Regenerate the kind=="dist" rows of BENCH_lineup.json: the fault-tolerant
# coordinator on a 3-thread workload at 1, 2, and 4 workers with injected
# worker crashes, recording units, kills absorbed, lease retries, and wall
# time. Fails without writing if any merged result diverges from the
# sequential exhaustive check.
bench-dist:
	LINEUP_BENCH_FULL=1 LINEUP_UPDATE_BENCH=1 $(GO) test -run=TestDistBaseline -v -timeout=30m ./internal/bench

# Regenerate the kind=="fastmon" rows of BENCH_lineup.json: the specialized
# monitors vs the memoized unpartitioned Wing–Gong search on unambiguous
# per-type workloads, lengths 10^2 .. 10^6 (WGL is skipped once a run blows
# the 2s budget — it is quadratic on these shapes). Fails without writing if
# any verdict disagrees or any type misses the >=10x speedup at >=10^4.
bench-fastmon:
	LINEUP_BENCH_FULL=1 LINEUP_UPDATE_BENCH=1 $(GO) test -run=TestFastmonBaseline -v -timeout=60m ./internal/bench

clean:
	$(GO) clean ./...
	rm -f BENCH_lineup.json
