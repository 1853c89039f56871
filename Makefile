# Convenience targets for the videocdn reproduction.

GO ?= go

.PHONY: all build test test-short race chaos chaos-cluster check-oracle cover fuzz bench bench-replay bench-edge bench-store bench-all bench-smoke bench-check bench-policy perf-gate experiments experiments-small fmt vet clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./internal/cluster/ ./internal/edge/ ./internal/resilience/ ./internal/store/ ./internal/shard/ ./internal/sim/ ./internal/oracle/ ./internal/policy/

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
# across the {mem,fs,slab}×{sync,async}×{1,8 shards}×{cafe,xlru}
# matrix, every response and counter diffed against the reference
# model. For soaks beyond CI budgets use cmd/checker (see README).
check-oracle:
	$(GO) test -race -count=1 ./internal/oracle/

# Coverage gate (also run in CI): ≥80% on the paper-critical packages,
# measured with a shared profile so the oracle's cross-package driving
# counts toward the policies it exercises.
cover:
	scripts/coverage.sh

fuzz:
	$(GO) test -fuzz=FuzzBinaryReader -fuzztime=30s ./internal/trace/
	$(GO) test -fuzz=FuzzTextReader -fuzztime=30s ./internal/trace/
	$(GO) test -fuzz=FuzzColumnarTrace -fuzztime=30s ./internal/trace/
	$(GO) test -fuzz=FuzzParseRange -fuzztime=30s ./internal/edge/
	$(GO) test -fuzz=FuzzOriginRange -fuzztime=30s ./internal/edge/
	$(GO) test -fuzz=FuzzSlabRecovery -fuzztime=30s ./internal/store/
	$(GO) test -fuzz=FuzzPolicyConfig -fuzztime=30s ./internal/policy/
	$(GO) test -fuzz=FuzzOrderedSetVsReference -fuzztime=30s ./internal/ordtree/

bench: bench-replay
	$(GO) test -bench=. -benchmem ./...

# Machine-readable replay-engine benchmark (sequential vs parallel
# sharded replay + per-request allocation profile) — commit the JSON to
# track the performance trajectory across PRs.
bench-replay:
	$(GO) run ./cmd/benchreplay -o BENCH_replay.json

# Live-load edge benchmark: closed-loop Zipf workload over the real
# HTTP server at 1/2/4/8 shards (throughput, p50/p99, allocs/request)
# plus the isolated cache-hit serve path (expected: 0 allocs/op).
bench-edge:
	$(GO) run ./cmd/benchedge -o BENCH_edge.json

# Chunk-store microbenchmark: Put/Get/put+delete/recovery-scan for the
# mem, fs, slab, slab-mmap and tiered backends, the zero-copy GetBorrow
# path, the tier hit breakdown, and the slab-vs-fs / tiered-vs-slab
# speedup summaries the disk layer's trajectory tracks (targets: ≥5x
# each, 0-alloc Get).
bench-store:
	$(GO) run ./cmd/benchstore -o BENCH_store.json

# Regenerate all three committed benchmark baselines in one shot. Run
# this on the machine whose numbers the baselines should record (each
# report stamps cpus/gomaxprocs; perfgate widens its tolerances when a
# rerun lands on a machine with a different CPU count).
bench-all: bench-store bench-edge bench-replay

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
# alpha 0.5 on one seeded europe trace. The box is noisy: read the ratio
# of the lines of one run, not a line across runs.
bench-policy:
	$(GO) test -run '^$$' -bench HandleRequestEurope -benchtime 5x ./internal/cafe

# Perf-regression smoke gate (also run in CI): regenerate all three
# benchmark reports at smoke size and compare against the committed
# baselines. Fails only on order-of-magnitude regressions — ns/op or
# cpu-sec/GB growth, throughput collapse, fill-memory blowup — or a
# zero-alloc path starting to allocate; safe on small noisy CI boxes.
perf-gate:
	$(GO) run ./cmd/benchstore -o /tmp/bench_store_smoke.json
	$(GO) run ./cmd/benchedge -shards 1 -concurrency 8 -requests 2000 -warmup 500 -videos 64 -servepath-mb 64 -o /tmp/bench_edge_smoke.json
	$(GO) run ./cmd/benchreplay -requests-per-day 4000 -days 2 -disk-chunks 512 -o /tmp/bench_replay_smoke.json
	$(GO) run ./cmd/perfgate BENCH_store.json /tmp/bench_store_smoke.json BENCH_edge.json /tmp/bench_edge_smoke.json BENCH_replay.json /tmp/bench_replay_smoke.json

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
