# Tier-1 gate: `make ci` must stay green on every PR.

GO ?= go

# Build identity stamped into the binary (cardnet_build_info metric and
# /healthz). Override VERSION on release builds: `make build VERSION=v1.2`.
VERSION ?= dev
GITSHA ?= $(shell git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
LDFLAGS = -X main.buildVersion=$(VERSION) -X main.buildSHA=$(GITSHA)

.PHONY: ci lint staticcheck vet build test allocs purego examples docs-lint race-serving race-obs race-train race-cluster race-infer race-autopilot fuzz-smoke perfbench-test perfbench bench-kernels loc

ci: lint staticcheck vet build test allocs purego examples docs-lint race-serving race-obs race-train race-cluster race-infer race-autopilot fuzz-smoke perfbench-test

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

# Run the four example programs end to end: each trains a small model,
# lowers it to its f64 plan and answers through the plan. Nothing else runs
# their main functions.
examples:
	@for d in quickstart updates imagesearch entitymatching; do \
		echo "examples/$$d"; $(GO) run ./examples/$$d > /dev/null || exit 1; \
	done

# Documentation contracts: exported identifiers in the ops-facing packages
# carry doc comments, and docs/RUNBOOK.md's flag reference matches the flags
# cmd/cardnet actually defines (both directions). See cmd/docslint.
docs-lint:
	$(GO) run ./cmd/docslint

build:
	$(GO) build -ldflags "$(LDFLAGS)" ./...

test:
	$(GO) test -race ./...

# The allocation pins without the race detector: it makes sync.Pool drop a
# random share of the items put back, so pins over pooled paths (the
# cache-hit /estimate handler, the plan forward) skip or build only without
# it, and `test` above would never run them.
allocs:
	$(GO) test ./... -run 'Allocs'

# Keep the generic Go kernel bodies tested: -tags purego builds
# internal/tensor without the AVX assembly (the Axpy saxpy loop, the Adam
# step, the ABT tile and the VecMat body), and the goldens, the kernel fuzz
# seeds (FuzzVecMat's pin vecMatGo to ABT), the Axpy table test, the
# AdamUpdate length check and the allocation pins (Adam.Step's and VecMat's
# among them) must still pass bit for bit on the Go loops and dot4; the
# plan tiers, the plan allocation contract and the estimate tests run the
# inference forward on dot4 and vecMatGo.
purego:
	$(GO) vet -tags purego ./internal/tensor
	$(GO) test -tags purego ./internal/tensor ./internal/nn ./internal/core ./internal/baselines -run 'Golden|MatMul|Axpy|AdamStep|Fuzz|Allocs'
	$(GO) test -tags purego ./internal/infer -run 'Fuzz|Tiers|Allocs|Estimate'

# Stress the serving engine's concurrency surface under the race detector
# beyond the plain `test` pass: repeated runs shuffle goroutine schedules.
race-serving:
	$(GO) test -race -count=3 ./internal/serving ./internal/core -run 'Concurrent|Swap|Saturation|Batcher|Cache'

# Shake the observability layer under the race detector: sink/registry
# concurrency, trace sampling, the rolling drift monitor, the SLO tracker's
# evaluation loop, triggered profile capture, and concurrent peer JSON
# fetches.
race-obs:
	$(GO) test -race -count=3 ./internal/obs/... -run 'Concurrent|Sink|Trace|Monitor|Drift|Sampler|Tracker|Burn|Capture|Cooldown|Busy|GatherJSON'

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
# plan compilation racing hot swaps.
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
# package's testdata/fuzz/ or in the target's f.Add seeds; plain `go test`
# replays them too): the router's routing-key extraction, the estimate-body
# decoder replica and router share against encoding/json, the router's
# health prober over two arbitrary replica /healthz bodies and its
# /admin/rollout body handling, the replica's /estimate request parsing and
# validation, its /feedback handler (with an unstarted autopilot attached)
# and its /admin/reload handler, the serving cache's packed curve key, trace
# JSONL loading and assembly, the generic ABT kernel against the
# per-element dot products, the MatMul and MatMulATBAdd saxpy kernels
# against the naive scalar loops, the vector Adam step against its Go loop,
# the batch-1 VecMat kernel against a one-row ABT, nn.ParamBytes against the
# bytes gob writes, the replica's /admin/autopilot body handling, model-file
# loading, trainer-state decode and resume, staged train-set loading and
# retraining, and the f64/f32 plans against the nn forward.
# FuzzLoadModel's and FuzzRestoreTrainer's seeds are model-sized files and
# every FuzzLoadTrainSet input runs a retrain, so all three skip minimizing
# new inputs, which would take their whole budget.
fuzz-smoke:
	$(GO) test ./internal/cluster -run '^$$' -fuzz '^FuzzExtractKey$$' -fuzztime=10s
	$(GO) test ./internal/cluster -run '^$$' -fuzz '^FuzzDecodeQuery$$' -fuzztime=10s
	$(GO) test ./internal/cluster -run '^$$' -fuzz '^FuzzReplicaHealthz$$' -fuzztime=10s
	$(GO) test ./internal/cluster -run '^$$' -fuzz '^FuzzRollout$$' -fuzztime=10s
	$(GO) test ./cmd/cardnet -run '^$$' -fuzz '^FuzzEstimateRequest$$' -fuzztime=10s
	$(GO) test ./cmd/cardnet -run '^$$' -fuzz '^FuzzFeedback$$' -fuzztime=10s
	$(GO) test ./cmd/cardnet -run '^$$' -fuzz '^FuzzAutopilot$$' -fuzztime=10s
	$(GO) test ./cmd/cardnet -run '^$$' -fuzz '^FuzzReload$$' -fuzztime=10s
	$(GO) test ./internal/serving -run '^$$' -fuzz '^FuzzCurveKey$$' -fuzztime=10s
	$(GO) test ./internal/obs/tracescan -run '^$$' -fuzz '^FuzzLoadTraces$$' -fuzztime=10s
	$(GO) test ./internal/tensor -run '^$$' -fuzz '^FuzzMatMulABT$$' -fuzztime=10s
	$(GO) test ./internal/tensor -run '^$$' -fuzz '^FuzzMatMul$$' -fuzztime=10s
	$(GO) test ./internal/tensor -run '^$$' -fuzz '^FuzzMatMulATBAdd$$' -fuzztime=10s
	$(GO) test ./internal/tensor -run '^$$' -fuzz '^FuzzAdamStep$$' -fuzztime=10s
	$(GO) test ./internal/tensor -run '^$$' -fuzz '^FuzzVecMat$$' -fuzztime=10s
	$(GO) test ./internal/nn -run '^$$' -fuzz '^FuzzParamBytes$$' -fuzztime=10s
	$(GO) test ./internal/checkpoint -run '^$$' -fuzz '^FuzzLoadModel$$' -fuzztime=10s -fuzzminimizetime=1x
	$(GO) test ./internal/checkpoint -run '^$$' -fuzz '^FuzzRestoreTrainer$$' -fuzztime=10s -fuzzminimizetime=1x
	$(GO) test ./internal/checkpoint -run '^$$' -fuzz '^FuzzLoadTrainSet$$' -fuzztime=10s -fuzzminimizetime=1x
	$(GO) test ./internal/infer -run '^$$' -fuzz '^FuzzPlanTiers$$' -fuzztime=10s

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

# Go line counts, the figures every CHANGES.md entry records: non-test and
# test files, excluding perfbench/ (its own module) and hidden directories.
loc:
	@printf 'non-test Go lines: '; find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.*' -exec cat {} + | wc -l
	@printf 'test Go lines:     '; find . -name '*_test.go' ! -path './perfbench/*' ! -path './.*' -exec cat {} + | wc -l

# Kernel-level GFLOP/s table: the read-bandwidth roofline at a 1 MiB and a
# 4.8 MB working set, the generic ABT kernel at f64 and f32 (at the 256-row
# batch, the 32-row training batch, one four-row group, and the 1- and 2-row
# serving batches, those two also as a share of the bandwidth roof), the
# batch-1 VecMat kernel over the transposed weight at f64 and f32 (dense and
# with half the inputs zero, skipped flops counted), the training
# backward kernels MatMul (dX) and MatMulATBAdd (dW) at 32 and 256 rows,
# dense and with the 45% zeros of fixture training's dY (skipped flops
# counted), the Axpy saxpy body at the fixture's 60/315/512-wide rows, one
# Adam step over the fixture's 1,126,070 parameters (ns/param and GB/s), and
# the zero-skip-vs-branch-free dense matmul comparison.
bench-kernels:
	$(GO) test ./internal/tensor -run '^$$' -bench 'Roofline|KernelABT|KernelVecMat|KernelMatMul|KernelATBAdd|Axpy|AdamStep|ZeroSkip' -benchmem
