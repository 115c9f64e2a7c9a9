# Tier-1 gate and friends. `make check` is what CI (and reviewers) run.

GO ?= go

.PHONY: check check-race fmt build vet test race sched-smoke core-smoke serve-smoke subjects-smoke dist-smoke fastmon-smoke benchmark-smoke sweeps table2-full bench fuzz loc clean

check: fmt build vet test sched-smoke core-smoke serve-smoke subjects-smoke dist-smoke fastmon-smoke benchmark-smoke fuzz

# Every Go file is gofmt-clean, benchmark/ included (the step only reads it);
# the offending files are listed on failure.
fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

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
# run on whichever thread coroutine holds the baton, and the goroutine that
# called Run resumes the next one, so the watchdog and abandonment paths, the
# carrying of controller panics to the Run goroutine, the pinned decision
# traces (five full explorations and a 2x2 test of each of the 21 registry
# subjects), the invariants of what an exploration keeps from one execution
# to the next (pool_test.go), the wait set's semantics, a wait set and a
# vsync mutex that outlive an execution (a stale waiter or holder is never
# taken for a later execution's thread),
# the point/switch tests, the goroutine-leak count (a rogue goroutine is
# reported, a clean run is not), an unwatched four-worker exploration (no
# watchdog, so the scheduler takes no lock) and the split suites (a split
# hands a subtree to another worker as a WorkUnit holding copies of its
# retired-branch footprints, replayed there like any unit; the early-stop
# statistics catch a split that leaves the sleeping branches it skips
# uncounted) and the forced-decision suite (every decision that cannot branch
# taken without a node and replayed by decision number: one with no choice
# left in the budget, held to a reference that makes each such decision a
# node, or one with every affordable branch asleep, which is no node in the
# reference either; on sleep sets, bounded and unbounded, at one, two and four
# workers and in units; about 10 s) run under the race detector on every
# `make check` (about 30 s on 2 CPUs). The forced-decision suite, the units
# suite and split-everywhere meet 398, 88 and 154 decisions with every
# affordable branch asleep, most with the current thread blocked; the
# results of such decisions are pinned by TestPhase2SleptGolden.
sched-smoke:
	$(GO) test -race -run 'TestWatchdog|TestAbandoned|TestControllerPanic|TestDecisionTrace|TestPool|TestWaitSet|TestPoint|TestDetectLeaks|TestUnwatched|TestParallelSplitEverywhereEquivalence|TestParallelReductionEquivalence|TestParallelEarlyStop|TestUnitsReproduceSequentialExploration|TestMutexHeldAcrossExecutions|TestForcedDecisionsMatchNodes' ./internal/sched ./internal/vsync

# Race-enabled smoke of phase 2's decisions: several workers decide distinct
# histories at once, each on an operation buffer from one shared pool, while
# their visitors wait on the deciding one. The worker-count equivalence suites,
# a panicking decision's waiters, the decision from raw events against the
# materialized history's, phase 1's serial history from raw events against
# ToSerial of the materialized one, and the stuck-history decision order run under the
# race detector on every `make check` (about two seconds);
# TestWorkerCountUnobservable takes over a minute with -race and runs in
# `make race` only.
core-smoke:
	$(GO) test -race -run 'TestCheckWorkers|TestParallelWitnessPanic|TestRawDecision|TestRawSerialHistory|TestStuckDecisionOrder' ./internal/core

# Race-enabled smoke of the streaming service: the full internal/serve suite
# (worker pool, backpressure, checkpoint/resume, HTTP ingest, agreement of
# every ingest entrance, FuzzServeConns' seed corpus of connections ingesting
# at once). Part of `make check`: the service is the one
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
# WGL vs the phase-1 spec). Part of `make check`: the batch monitors must never
# disagree with the search they are checked against.
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
# against encoding/json, the binary batch frame codec, and the observation
# file: refused, or written back to the same histories), the test-matrix
# mutator (well-formedness + schedule replayability of every mutant), the
# phase-2 history key (equal keys exactly when the histories are equal, on
# hostile strings), the incremental monitor (arbitrary quiescent cuts against
# batch Check), the oracle (every decision procedure held to the one
# executable definition on hostile values: quotes, separators, "", a 200-byte
# item; FuzzSpec spends its budget on the spec trie's stores alone) and the
# loaders of the files a check is written down in (dist job file and
# manifest, RandomCheck checkpoint: a structured error or a value whose written
# form is a fixed point; the loaders take paths, so an execution is six file
# writes and an unbounded minimization would eat the five seconds) and serve's
# multi-connection ingest (a stream dealt to 1-4 connections at once gives the
# verdicts of one); the seed corpus plus a few seconds of mutation on every
# `make check` keeps crash regressions out of the hot paths.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzReadTrace -fuzztime=5s ./internal/obsfile
	$(GO) test -run='^$$' -fuzz=FuzzStreamReader -fuzztime=5s ./internal/obsfile
	$(GO) test -run='^$$' -fuzz=FuzzJSONLScanner -fuzztime=5s ./internal/obsfile
	$(GO) test -run='^$$' -fuzz=FuzzBatchFrame -fuzztime=5s ./internal/obsfile
	$(GO) test -run='^$$' -fuzz=FuzzObservationFile -fuzztime=5s ./internal/obsfile
	$(GO) test -run='^$$' -fuzz=FuzzMutate -fuzztime=5s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzHistoryKey -fuzztime=5s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzFastMonitor -fuzztime=5s ./internal/monitor/fast
	$(GO) test -run='^$$' -fuzz=FuzzIncremental -fuzztime=5s ./internal/monitor
	$(GO) test -run='^$$' -fuzz=FuzzOracle -fuzztime=5s ./internal/oracle
	$(GO) test -run='^$$' -fuzz=FuzzSpec -fuzztime=5s ./internal/oracle
	$(GO) test -run='^$$' -fuzz=FuzzCheckFiles -fuzztime=5s -fuzzminimizetime=100x ./internal/dist
	$(GO) test -run='^$$' -fuzz=FuzzServeConns -fuzztime=5s ./internal/serve

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

# Table 2 at the paper's scale: 100 random 3x3 tests per class at seed 1
# (about two and a half minutes on two CPUs). Every corrected class must pass
# every sample, every (Pre) and intentional class must fail with its
# documented causes, and the structural columns must equal table2_output.txt
# (`lineup table2 -samples 100 -seed 1` writes it). The test is built only
# under the table2full tag, so `go test ./...` neither builds nor runs it.
table2-full:
	$(GO) test -tags table2full -run '^TestTable2Full$$' -timeout 60m -v ./internal/bench

# The number the ROADMAP's size gates are stated in: lines of non-test Go
# outside benchmark/. ROADMAP item 11 holds the round's gate and the latest
# readings.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs wc -l | tail -1

# Build leftovers only; everything removed here is in .gitignore.
clean:
	$(GO) clean ./...
	rm -rf .bench_build benchmark/out
