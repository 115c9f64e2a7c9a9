# Tier-1 gate and friends. `make check` is what CI (and reviewers) run.

GO ?= go

.PHONY: check check-race build vet test race sched-smoke serve-smoke subjects-smoke dist-smoke fastmon-smoke benchmark-smoke sweeps bench fuzz loc clean

check: build vet test sched-smoke serve-smoke subjects-smoke dist-smoke fastmon-smoke benchmark-smoke fuzz

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-enabled pass over the packages that actually spin up goroutines:
# the scheduler, the core checkers (phase-2 explorations shared among
# workers — TestWorkerCountUnobservable is the gate — and parallel RandomCheck
# workers), the fault-injection containment harness, the monitor (parallel
# partition search), the collector (the CAS watermark and a child's add to its
# parent are reached from every worker) and the dist coordinator. -short skips
# the long sweeps.
race:
	$(GO) test -race -short ./internal/sched ./internal/core ./internal/faultinject ./internal/monitor ./internal/serve ./internal/bench ./internal/telemetry ./internal/dist

# Race-enabled smoke of the scheduler's baton passing: scheduling decisions
# run on whichever thread goroutine holds the baton, so the watchdog and
# abandonment paths, the carrying of controller panics to the Run goroutine,
# the pinned decision traces (five full explorations) and the invariants of
# what an exploration keeps from one execution to the next (pool_test.go) run
# under the race detector on every `make check`.
sched-smoke:
	$(GO) test -race -run 'TestWatchdog|TestAbandoned|TestControllerPanic|TestDecisionTrace|TestPool' ./internal/sched

# Race-enabled smoke of the streaming service: the full internal/serve suite
# (worker pool, backpressure, checkpoint/resume, HTTP ingest, agreement of
# every ingest entrance). Part of `make check`: the service is the one
# subsystem whose whole job is cross-goroutine handoff.
serve-smoke:
	$(GO) test -race ./internal/serve

# Race-enabled smoke of the Go-native subject corpus: the directed
# strict/Pre/Relaxed verdict tests for every family under the real Go race
# detector, so a corpus subject whose synchronization is broken at the Go
# level (not just at the modeled vsync level) fails loudly. Part of
# `make check`.
subjects-smoke:
	$(GO) test -race -run 'TestRegistry|TestStrictSubjectsPass|TestPreSubjectsFail|TestRelaxedSubjects' ./internal/subjects

# Race-enabled smoke of the fault-tolerant distributed coordinator: the full
# internal/dist suite (lease grants/expiry, randomized worker crash/hang/stall
# injection with the merged result required bit-identical to the sequential
# check, coordinator crash resume, poisoning). Part of `make check`: the
# coordinator is pure cross-goroutine handoff.
dist-smoke:
	$(GO) test -race -run 'TestDist' ./internal/dist

# Smoke of the specialized batch monitors: the full internal/monitor/fast
# suite and the explorer-driven bit-identity property suite (fast+fallback vs
# WGL vs the naive search vs the phase-1 spec). Part of `make check`: the
# batch monitors must never disagree with the search they are checked against.
fastmon-smoke:
	$(GO) test ./internal/monitor/fast
	$(GO) test -run 'TestFastBackendBitIdentical' ./internal/bench

# The measuring harness is its own module (benchmark/go.mod, `replace lineup
# => ../`), so `go build ./...` here never compiles it: renaming something it
# imports from internal/ would pass every other gate and break the program
# PRs are judged by. Vet it and run its tests against this tree.
benchmark-smoke:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# Short coverage-guided fuzz pass over the external input parsers (the batch
# JSONL trace reader, the incremental stream reader, the JSONL schema scanner
# against encoding/json, and the binary batch frame codec), the test-matrix
# mutator (well-formedness + schedule
# replayability of every mutant), the specification trie (against a
# map-based reference), the incremental monitor (arbitrary quiescent cuts
# against batch Check) and the loaders of the files a check is written down in
# (dist job file and manifest, RandomCheck checkpoint: a structured error or a
# value whose written form is a fixed point; the loaders take paths, so an
# execution is six file writes and an unbounded minimization would eat the five
# seconds); the seed corpus plus a few seconds of mutation on every `make check`
# keeps crash regressions out of the hot paths.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzSpec -fuzztime=5s ./internal/history
	$(GO) test -run='^$$' -fuzz=FuzzReadTrace -fuzztime=5s ./internal/obsfile
	$(GO) test -run='^$$' -fuzz=FuzzStreamReader -fuzztime=5s ./internal/obsfile
	$(GO) test -run='^$$' -fuzz=FuzzJSONLScanner -fuzztime=5s ./internal/obsfile
	$(GO) test -run='^$$' -fuzz=FuzzBatchFrame -fuzztime=5s ./internal/obsfile
	$(GO) test -run='^$$' -fuzz=FuzzMutate -fuzztime=5s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzFastMonitor -fuzztime=5s ./internal/monitor/fast
	$(GO) test -run='^$$' -fuzz=FuzzIncremental -fuzztime=5s ./internal/monitor
	$(GO) test -run='^$$' -fuzz=FuzzCheckFiles -fuzztime=5s -fuzzminimizetime=100x ./internal/dist

# Full race-enabled pass over every package (much slower than `race`). The
# bench sweeps run for several minutes even uninstrumented, hence the timeout.
check-race:
	$(GO) test -race -timeout=60m ./...

# Every measured number comes from the harness in benchmark/ (six workloads,
# metrics declared in BENCHMARK.json; results land in benchmark/out/). The
# testing.B groups in bench_test.go stay beside it for profiling one layer.
bench:
	bash benchmark/run.sh
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

# The five RandomCheck sweeps over the whole class registry at the paper's
# 3x3 size (about three minutes on two CPUs) and internal/core in full (all
# twenty repetitions of every TestWorkerCountUnobservable slice, the 4x3
# phase-1 invariant). Plain `go test ./...` runs a fixed smoke subset of
# each; LINEUP_BENCH_FULL=1 lifts that.
sweeps:
	LINEUP_BENCH_FULL=1 $(GO) test -timeout=30m ./internal/bench ./internal/core

# The number the ROADMAP's size gates are stated in: lines of non-test Go
# outside benchmark/ (22 888 before PR 24, 22 748 after).
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs wc -l | tail -1

# Build leftovers only; everything removed here is in .gitignore.
clean:
	$(GO) clean ./...
	rm -rf .bench_build benchmark/out
