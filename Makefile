# Convenience targets for the videocdn reproduction.

GO ?= go

.PHONY: all build test test-short race chaos chaos-cluster check-oracle cover fuzz mutants bench bench-smoke bench-check bench-policy bench-store bench-trace check-figs experiments experiments-small fmt vet clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./cmd/cdnserver/ ./internal/cluster/ ./internal/edge/ ./internal/resilience/ ./internal/store/ ./internal/shard/ ./internal/sim/ ./internal/oracle/ ./internal/policy/ ./internal/trace/ ./internal/workload/

# Fault-injection suite: drives the edge↔origin stack through seeded
# outages (5xx bursts, latency spikes, mid-body truncation) and asserts
# degrade-to-redirect, breaker transitions, exact byte accounting and
# no goroutine leaks. -count=2 catches state leaking between runs.
chaos:
	$(GO) test -race -count=2 -run 'TestChaos|TestFilledBytes|TestPrefetchCharges|TestSelfHealCounts' ./internal/edge/

# Cluster fault-injection suite: a 3-node edge cluster where one peer
# is hard-killed and another slowed/truncated mid-run, asserting
# rebalancing onto survivors, per-peer breaker open→probe→close, the
# bit-exact cluster-wide efficiency identity (including C_P), and the
# 1-node-cluster ≡ standalone differential gate.
chaos-cluster:
	$(GO) test -race -count=2 -run 'TestChaosCluster|TestClusterOfOne|TestProberAndClientShutdownNoGoroutineLeak' ./internal/cluster/

# Model-based oracle: seeded scenario sequences through the real edge
# across the {mem,fs,slab}×{16,128-chunk disk}×{hot 0,32 KB}×{cafe,xlru}
# matrix, every response and counter diffed against the reference
# model. For soaks beyond CI budgets use cmd/checker (see README).
check-oracle:
	$(GO) test -race -count=1 ./internal/oracle/

# Coverage gate (also run in CI): ≥80% on the paper-critical packages,
# measured with a shared profile so the oracle's cross-package driving
# counts toward the policies it exercises.
cover:
	scripts/coverage.sh

# Standing mutants (mutants/table.go): each deliberate defect must fail
# the tests its entry names, except the open survivors mutants/SURVIVORS
# lists. mutants/ is a module of its own, so `go test ./...` never runs
# it. -v prints each mutant's killing tests.
mutants:
	$(GO) test -C mutants -count=1 -v -timeout 20m .

fuzz:
	$(GO) test -fuzz=FuzzTextReader -fuzztime=30s ./internal/trace/
	$(GO) test -fuzz=FuzzColumnarTrace -fuzztime=30s ./internal/trace/
	$(GO) test -fuzz=FuzzParseRange -fuzztime=30s ./internal/edge/
	$(GO) test -fuzz=FuzzOriginRange -fuzztime=30s ./internal/edge/
	$(GO) test -fuzz=FuzzSlabRecovery -fuzztime=30s ./internal/store/
	$(GO) test -fuzz=FuzzPolicyConfig -fuzztime=30s ./internal/policy/
	$(GO) test -fuzz=FuzzOrderedSetVsReference -fuzztime=30s ./internal/ordtree/

bench:
	$(GO) test -bench=. -benchmem ./...

# One-iteration pass over every go-test benchmark in the tree — the
# same compile-and-run smoke CI uses to keep benchmarks from bit-rotting
# without paying for real measurement.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# The repository benchmark (BENCHMARK.json, bench/) is a module of its
# own, so `go test ./...` never reaches its tests: run them, then one
# short pass of every workload with every output check on.
bench-check:
	$(GO) test -C bench .
	bash bench/run.sh -smoke

# Policy cost without the bench/ module: ns/req of cafe, xlru and cafe at
# alpha 0.5 on one seeded europe trace, then of Cafe on replay-cafe's own
# loop (its seed-1 trace through sim.Replay in batches of 256, cold each
# iteration). The box is noisy: read the ratio of the lines of one run,
# not a line across runs.
bench-policy:
	$(GO) test -run '^$$' -bench 'HandleRequestEurope|ReplayCafeRig' -benchtime 5x ./internal/cafe

# Chunk-store microbenchmarks, the one layer bench/ has no workload for:
# Put/Get/GetBorrow/GetSection/PutStream/Delete/RecoveryScan per backend.
bench-store:
	$(GO) test -run '^$$' -bench Store -benchmem ./internal/store

# Trace generation and merging, what replay-cafe's setup_s is made of:
# ns/req and B/op of the rig's trace (europe, 8 parts, 30 days, videos
# capped at 128 MB) and of an 8-way trace.Merge.
bench-trace:
	$(GO) test -run '^$$' -bench 'Generate|Merge' -benchmem ./internal/workload ./internal/trace

# Regenerate every default-scale section of experiments_default.txt but
# Figure 2 and Optimum bracketing (the LP solver's minutes) and compare
# each byte for byte with the committed one; a mismatch names the section.
check-figs:
	scripts/check-figs.sh

# Regenerate every figure and table of the paper (plus extensions).
experiments:
	$(GO) run ./cmd/experiments -fig all -scale default

experiments-small:
	$(GO) run ./cmd/experiments -fig all -scale small

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
