# Tier-1 gate: `make ci` must stay green on every PR.

GO ?= go

# Build identity stamped into the binary (cardnet_build_info metric and
# /healthz). Override VERSION on release builds: `make build VERSION=v1.2`.
VERSION ?= dev
GITSHA ?= $(shell git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
LDFLAGS = -X main.buildVersion=$(VERSION) -X main.buildSHA=$(GITSHA)

.PHONY: ci lint staticcheck vet build test docs-lint race-serving race-obs race-train race-cluster race-infer race-autopilot fuzz-smoke perfbench-test perfbench bench-obs bench-serving bench-train bench-kernels bench-autopilot

ci: lint staticcheck vet build test docs-lint race-serving race-obs race-train race-cluster race-infer race-autopilot fuzz-smoke perfbench-test

lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# Optional deep lint: runs only where the staticcheck binary is already
# installed; CI containers without it skip the step rather than fail.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

vet:
	$(GO) vet ./...

# Documentation contracts: exported identifiers in the ops-facing packages
# carry doc comments, and docs/RUNBOOK.md's flag reference matches the flags
# cmd/cardnet actually defines (both directions). See cmd/docslint.
docs-lint:
	$(GO) run ./cmd/docslint

build:
	$(GO) build -ldflags "$(LDFLAGS)" ./...

test:
	$(GO) test -race ./...

# Stress the serving engine's concurrency surface under the race detector
# beyond the plain `test` pass: repeated runs shuffle goroutine schedules.
race-serving:
	$(GO) test -race -count=3 ./internal/serving ./internal/core -run 'Concurrent|Swap|Saturation|Batcher|Cache'

# Shake the observability layer under the race detector: sink/registry
# concurrency, trace sampling, the rolling drift monitor, the SLO tracker's
# evaluation loop, triggered profile capture, and metrics federation.
race-obs:
	$(GO) test -race -count=3 ./internal/obs/... -run 'Concurrent|Sink|Trace|Monitor|Drift|Sampler|Tracker|Burn|Capture|Cooldown|Busy|Federate'

# Stress the data-parallel training engine and the shared tensor worker pool
# under the race detector: shard forward/backward over shared weights, ordered
# gradient reduction, and the help-first pool's nested dispatch.
race-train:
	$(GO) test -race -count=3 ./internal/core -run 'Workers|ParallelCloseToSequential|Sharded'
	$(GO) test -race -count=3 ./internal/tensor -run 'Parallel|RunParts|SetWorkers'

# Stress the cluster router under the race detector: ring membership churn,
# concurrent failover with a mid-traffic replica kill, the health prober's
# loop, and the rollout controller — plus the cmd-level router E2E (real
# replicas, real model files, canary promote and forced rollback).
race-cluster:
	$(GO) test -race -count=3 ./internal/cluster
	$(GO) test -race -count=2 ./cmd/cardnet -run 'RouterE2E|RunRouter'

# Stress the compiled inference path under the race detector: one plan shared
# by concurrent estimators (the scratch pool), engine precision tiers, and
# plan re-lowering racing hot swaps.
race-infer:
	$(GO) test -race -count=3 ./internal/infer -run 'Concurrent|Plan|Gate'
	$(GO) test -race -count=3 ./internal/serving -run 'Precision|GateFallback|SwapRelowers'

# Stress the autopilot's closed loop under the race detector: the full
# drift → retrain → shadow → swap cycle, mid-retrain kill and resume, the
# forced-regression reject, and the serve-layer E2E over live HTTP.
race-autopilot:
	$(GO) test -race -count=3 ./internal/autopilot
	$(GO) test -race -count=2 ./cmd/cardnet -run 'Autopilot|HealthzShape'

# Short native-fuzzing pass over every fuzz target (seed corpora live in each
# package's testdata/fuzz/; plain `go test` replays them too): the router's
# routing-key extraction, the serving cache's packed curve key, and the ABT
# kernels against the per-element dot products.
fuzz-smoke:
	$(GO) test ./internal/cluster -run '^$$' -fuzz '^FuzzExtractKey$$' -fuzztime=10s
	$(GO) test ./internal/serving -run '^$$' -fuzz '^FuzzCurveKey$$' -fuzztime=10s
	$(GO) test ./internal/tensor -run '^$$' -fuzz '^FuzzMatMulABT$$' -fuzztime=10s

# The benchmark's own helper tests. perfbench/ is a separate Go module, so
# the root `go test ./...` does not reach it.
perfbench-test:
	cd perfbench && $(GO) test ./...

# Run the repository benchmark (perfbench/, described by BENCHMARK.json) on
# all three workloads and print each result line. Manual, not part of ci:
# each workload measures for 10s after building and training its fixture.
perfbench:
	@for w in point-fresh sweep-zipf update-stream; do \
		out=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 10 --trace 0); rc=$$?; \
		echo "$$w: $$(echo "$$out" | tail -n 1)"; \
		[ $$rc -eq 0 ] || exit $$rc; \
	done

# Regenerate the instrumentation-overhead baseline (results/BENCH_obs.json).
bench-obs:
	$(GO) run ./cmd/cardnet -mode obsbench -dataset HM-ImageNet -n 1200 \
		-calls 4000 -benchout results/BENCH_obs.json

# Regenerate the serving-throughput baseline (results/BENCH_serving.json):
# batched vs per-request forward passes, the estimate cache, admission
# control under overload, and the router scaling/failover experiments.
bench-serving:
	$(GO) run ./cmd/cardnet -mode servebench -dataset HM-ImageNet -n 1200 \
		-calls 4000 -cluster -benchout results/BENCH_serving.json

# Regenerate the training-scalability baseline (results/BENCH_train.json):
# full training runs at workers 1/2/4/NumCPU plus parallel-kernel GFLOP/s.
bench-train:
	$(GO) run ./cmd/cardnet -mode trainbench -dataset HM-ImageNet -n 1200 \
		-benchepochs 8 -benchout results/BENCH_train.json

# Regenerate the closed-loop baseline (results/BENCH_autopilot.json): trigger
# latency over the dwell window, shadow-tap overhead on the all-τ estimate
# path, and client-visible downtime across the hot swap (must be 0 errors).
bench-autopilot:
	$(GO) run ./cmd/cardnet -mode autopilotbench -dataset HM-ImageNet -n 1200 \
		-calls 1500 -benchout results/BENCH_autopilot.json

# Kernel-level GFLOP/s table for the inference fast path: the f64/f32/int8
# ABT kernels (at the trainbench batch of 256 rows and at the 1- and 2-row
# serving batches), int8 activation quantization, and the
# zero-skip-vs-branch-free dense matmul comparison.
bench-kernels:
	$(GO) test ./internal/tensor -run '^$$' -bench 'KernelABT|KernelInt8|ZeroSkip' -benchmem
