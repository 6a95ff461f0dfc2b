// Command cardnet trains a CardNet/CardNet-A estimator on a generated
// workload, saves it to disk, answers estimation queries, and serves
// estimates over HTTP with full observability — a minimal operational loop
// around the library.
//
// Usage:
//
//	cardnet -mode train -dataset HM-ImageNet -model model.gob
//	cardnet -mode train -dataset HM-ImageNet -model model.gob -resume
//	cardnet -mode estimate -dataset HM-ImageNet -model model.gob -queries 20
//	cardnet -mode update -dataset HM-ImageNet -model model.gob
//	cardnet -mode serve -model model.gob -addr :8089
//	cardnet -mode router -addr :8088 -replicas http://127.0.0.1:8089,http://127.0.0.1:8090
//	cardnet -mode tracescan -scan-top 10 router.trace.jsonl replica1.trace.jsonl replica2.trace.jsonl
//	cardnet -mode obsbench -dataset HM-ImageNet -benchout results/BENCH_obs.json
//	cardnet -mode servebench -dataset HM-ImageNet -benchout results/BENCH_serving.json
//	cardnet -mode trainbench -dataset HM-ImageNet -benchout results/BENCH_train.json
//	cardnet -mode autopilotbench -dataset HM-ImageNet -benchout results/BENCH_autopilot.json
//
// Train and update write a per-epoch JSONL training log (default
// <model>.train.jsonl; -trainlog off disables) and durable checkpoints
// (default <model>.ckpt directory; tune with -ckpt-dir/-ckpt-every/
// -ckpt-retain). SIGINT/SIGTERM stop the run at the next epoch boundary with
// that epoch checkpointed; -resume continues bit-identically from the newest
// usable checkpoint, given the same dataset flags. Finished models are
// published atomically (temp file + fsync + rename with a CRC-checked
// header), so the serve loader never sees a torn file. Serve runs the
// internal/serving batched engine (micro-batching, admission control,
// estimate cache of one curve per packed x, hot model swap — tune with
// -maxbatch/-maxwait/-queue/-workers/-cache) and exposes POST/GET /estimate,
// POST /admin/reload, /metrics (obs registry snapshot), /healthz, and
// /debug/pprof/*; it shuts down gracefully on SIGINT/SIGTERM. Router fronts
// N serve replicas with cache-affine consistent-hash routing on x alone
// (every τ of a query goes to the replica caching its curve), health
// probing with ejection, bounded failover on 503/connect errors, graceful drain, and
// canary model rollout via POST /admin/rollout (tune with -replicas/-vnodes/
// -probe-interval/-eject-after/-failover-retries/-rollout-*). The router
// propagates a fleet-wide trace ID to its replicas (X-Trace-Id, with the
// attempt span in X-Trace-Parent) and samples its own tiled stage traces
// (-trace-sample-rate/-tracelog, same flags as serve); tracescan joins the
// router's and replicas' trace JSONL files into end-to-end cross-process
// traces and reports critical-path attribution, retry amplification, and the
// slowest traces (tune with -scan-top/-scan-skew/-scan-json). Obsbench
// records estimate-path latency
// with instrumentation on vs. off; servebench records batched vs per-request
// throughput and the estimate cache's effect (and with -cluster, router
// scaling efficiency vs. replica count plus a mid-bench replica-kill failover
// run); trainbench sweeps the
// data-parallel training engine over worker counts and records epoch/total
// speedups plus tensor-kernel GFLOP/s. Autopilotbench drives one full
// closed-loop cycle (drift → retrain → shadow → swap) against a live engine
// and records trigger latency, shadow-tap overhead, and client-visible swap
// downtime.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"cardnet/internal/autopilot"
	"cardnet/internal/bench"
	"cardnet/internal/checkpoint"
	"cardnet/internal/cluster"
	"cardnet/internal/core"
	"cardnet/internal/dataset"
	"cardnet/internal/infer"
	"cardnet/internal/metrics"
	"cardnet/internal/obs"
	"cardnet/internal/obs/runtimeobs"
	"cardnet/internal/serving"
	"cardnet/internal/simselect"
	"cardnet/internal/tensor"
)

// Build identity, stamped by the Makefile via
// -ldflags "-X main.buildVersion=… -X main.buildSHA=…"; plain `go build`
// runs as dev/unknown. Exposed as the cardnet_build_info info metric and in
// /healthz so an operator can tell which build each replica runs.
var (
	buildVersion = "dev"
	buildSHA     = "unknown"
)

func main() {
	log.SetFlags(0)
	mode := flag.String("mode", "train", "train | estimate | update | serve | router | tracescan | fleetstat | obsbench | servebench | trainbench | autopilotbench")
	dsName := flag.String("dataset", "HM-ImageNet", "dataset name from the Table 2 registry")
	modelPath := flag.String("model", "cardnet-model.gob", "model file (input for estimate/update/serve, output for train)")
	n := flag.Int("n", 1200, "dataset size")
	accel := flag.Bool("accel", true, "use the accelerated CardNet-A encoder")
	queries := flag.Int("queries", 10, "estimate: number of test queries to answer")
	seed := flag.Int64("seed", 7, "random seed")
	addr := flag.String("addr", ":8089", "serve: HTTP listen address")
	trainLog := flag.String("trainlog", "", `train/update: JSONL epoch-event log path ("" = <model>.train.jsonl, "off" = disabled)`)
	benchOut := flag.String("benchout", "results/BENCH_obs.json", "obsbench/servebench: output JSON path")
	benchCalls := flag.Int("calls", 2000, "obsbench/servebench: measured estimate calls per configuration")
	maxBatch := flag.Int("maxbatch", 32, "serve: max requests coalesced into one forward pass")
	maxWait := flag.Duration("maxwait", 0, "serve: batch flush deadline (0 = flush what is queued at once)")
	queueDepth := flag.Int("queue", 256, "serve: admission queue depth (full queue -> 503)")
	workers := flag.Int("workers", 0, "train/update: data-parallel training shards (0 = all CPUs); serve: batch workers (0 = GOMAXPROCS)")
	benchEpochs := flag.Int("benchepochs", 8, "trainbench: training epochs per worker configuration")
	cacheEntries := flag.Int("cache", 4096, "serve: estimate cache capacity in query curves (negative disables)")
	precision := flag.String("precision", "f64", "serve: inference precision tier (f64 | f32 | int8); compiled tiers serve only if the accuracy gate passes, else f64")
	precisionGateDelta := flag.Float64("precision-gate-delta", infer.DefaultGateMaxDelta, "serve: max q-error p99 delta vs f64 a compiled precision tier may add before falling back")
	precisionGateSweep := flag.Int("precision-gate-sweep", infer.DefaultGateSweep, "serve: validation queries the precision gate evaluates per (re)lowering")
	traceRate := flag.Float64("trace-sample-rate", 0.01, "serve/router: fraction of requests whose traces are written to -tracelog")
	traceLog := flag.String("tracelog", "off", `serve/router: JSONL request-trace log path ("off" = disabled)`)
	auditRate := flag.Float64("audit-sample-rate", 0, "serve: fraction of estimates replayed against the exact oracle (Hamming datasets only; 0 = off)")
	autopilotOn := flag.Bool("autopilot", false, "serve: close the drift loop autonomously (drift -> incremental retrain -> shadow-eval -> hot swap); needs the exact oracle, so Hamming datasets only")
	autopilotDwell := flag.Duration("autopilot-dwell", 30*time.Second, "serve: how long drift must stay retrain-recommended before the autopilot triggers")
	autopilotCooldown := flag.Duration("autopilot-cooldown", 5*time.Minute, "serve: rest period after an autopilot swap or reject before it re-arms")
	autopilotMinSamples := flag.Int("autopilot-min-samples", 64, "serve: distinct feedback/audit queries the autopilot needs before retraining")
	autopilotShadowRate := flag.Float64("autopilot-shadow-rate", 0.25, "serve: fraction of live batches dual-run through the candidate during shadow evaluation")
	autopilotShadowMin := flag.Int("autopilot-shadow-min", 256, "serve: live rows the shadow comparison scores before a swap/reject verdict")
	autopilotShadowTimeout := flag.Duration("autopilot-shadow-timeout", 2*time.Minute, "serve: shadow-phase bound; too little traffic by then rejects the candidate")
	autopilotWorkers := flag.Int("autopilot-workers", 1, "serve: data-parallel shards for autopilot retrains (1 = sequential, least disruptive to serving)")
	autopilotDir := flag.String("autopilot-dir", "", `serve: autopilot staging directory for candidate checkpoints ("" = <model>.autopilot)`)
	autopilotJournal := flag.String("autopilot-journal", "", `serve: JSONL autopilot decision-journal path ("" = <model>.autopilot.jsonl, "off" = disabled)`)
	resume := flag.Bool("resume", false, "train/update: continue from the newest checkpoint in -ckpt-dir (same dataset flags required)")
	ckptDir := flag.String("ckpt-dir", "", `train/update: checkpoint directory ("" = <model>.ckpt, "off" = disable checkpointing)`)
	ckptEvery := flag.Int("ckpt-every", 1, "train/update: write a checkpoint every N epochs")
	ckptRetain := flag.Int("ckpt-retain", 3, "train/update: checkpoints kept on disk (older ones are pruned)")
	obsInterval := flag.Duration("obs-interval", 10*time.Second, "serve: runtime-health sampling period")
	sloLatency := flag.Duration("slo-latency", 100*time.Millisecond, "serve: latency SLO bound (requests within it count as good)")
	sloLatencyTarget := flag.Float64("slo-latency-target", 0.99, "serve: fraction of requests promised within -slo-latency")
	sloAvailTarget := flag.Float64("slo-availability-target", 0.999, "serve: fraction of requests promised a non-5xx answer")
	sloFast := flag.Duration("slo-fast", 5*time.Minute, "serve: fast burn-rate window")
	sloSlow := flag.Duration("slo-slow", time.Hour, "serve: slow burn-rate window")
	sloInterval := flag.Duration("slo-interval", 5*time.Second, "serve: SLO evaluation period")
	sloLog := flag.String("slolog", "off", `serve: JSONL SLO state-transition log path ("off" = disabled)`)
	profileDir := flag.String("profile-dir", "off", `serve: directory for triggered pprof capture ("off" = disabled)`)
	profileRetain := flag.Int("profile-retain", 4, "serve: captured profile pairs kept on disk (older ones are pruned)")
	profileCooldown := flag.Duration("profile-cooldown", time.Minute, "serve: minimum gap between triggered profile captures")
	profileCPU := flag.Duration("profile-cpu", 2*time.Second, "serve: CPU-profile sampling duration per capture")
	profileP99 := flag.Duration("profile-p99", 0, "serve: capture a profile when the fast-window p99 exceeds this (0 = only on SLO page)")
	peersFlag := flag.String("peers", "", "serve/fleetstat: comma-separated peer addresses (host:port or URL) to federate/inspect")
	fleetInterval := flag.Duration("fleet-interval", time.Second, "fleetstat: gap between the two metric polls that yield QPS")
	replicasFlag := flag.String("replicas", "", "router: comma-separated replica base URLs to front (host:port or URL)")
	vnodes := flag.Int("vnodes", cluster.DefaultVNodes, "router: virtual nodes per replica on the consistent-hash ring")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "router: gap between replica health-probe sweeps")
	ejectAfter := flag.Int("eject-after", 3, "router: consecutive failed probes before a replica leaves the ring")
	failoverRetries := flag.Int("failover-retries", 2, "router: extra ring nodes tried after the primary rejects or is unreachable")
	rolloutBake := flag.Duration("rollout-bake", 30*time.Second, "router: canary bake period before the promote/rollback verdict")
	rolloutMaxRegression := flag.Float64("rollout-max-regression", 0.25, "router: tolerated canary q-error overshoot vs the fleet median before rollback")
	rolloutMinSamples := flag.Int("rollout-min-samples", 20, "router: q-error samples the canary window needs before its EWMA is trusted")
	rolloutJournal := flag.String("rollout-journal", "off", `router: JSONL rollout-decision journal path ("off" = disabled)`)
	clusterBench := flag.Bool("cluster", false, "servebench: also measure router scaling (1/2/4 replicas) and mid-bench failover")
	scanTop := flag.Int("scan-top", 10, "tracescan: slow-trace table size")
	scanSkew := flag.Duration("scan-skew", 5*time.Millisecond, "tracescan: clock-skew tolerance for the cross-process tiling check")
	scanJSON := flag.String("scan-json", "", `tracescan: machine-readable report path ("" = text only, "-" = JSON to stdout)`)
	flag.Parse()

	// Identity metrics: which build is this, and when did it start. The info
	// series carries the identity as labels (constant value 1, the Prometheus
	// info-metric idiom); the gauge feeds process-uptime alerting.
	obs.Default.SetInfo("cardnet.build.info",
		obs.Label{Name: "version", Value: buildVersion},
		obs.Label{Name: "sha", Value: buildSHA},
		obs.Label{Name: "go", Value: runtime.Version()})
	obs.Default.Gauge("process.start_time.seconds").
		Set(float64(runtimeobs.StartTime().UnixNano()) / 1e9)

	precTier, err := infer.ParsePrecision(*precision)
	if err != nil {
		log.Fatalf("-precision: %v", err)
	}
	serveCfg := serving.Config{
		MaxBatch:     *maxBatch,
		MaxWait:      *maxWait,
		QueueDepth:   *queueDepth,
		Workers:      *workers,
		CacheEntries: *cacheEntries,
		Precision:    precTier,
		GateMaxDelta: *precisionGateDelta,
		GateSweep:    *precisionGateSweep,
		GateSeed:     *seed,
	}

	spec, ok := dataset.DefaultsByName()[*dsName]
	if !ok {
		log.Fatalf("unknown dataset %q; known: HM-ImageNet, HM-PubChem, ED-AMiner, ED-DBLP, JC-BMS, JC-DBLPq3, EU-Glove300, EU-Glove50", *dsName)
	}
	opts := bench.DefaultOptions()
	opts.Seed = *seed
	opts.NOverride = *n
	// The serve path needs only the trained model, not a rebuilt workload.
	buildBundle := func() *bench.Bundle { return bench.BuildSuite(spec, opts).Bundle }

	switch *mode {
	case "train":
		b := buildBundle()
		sink, closeSink := openTrainLog(*trainLog, *modelPath)
		var hook core.TrainHook
		if sink != nil {
			hook = trainLogHook(sink, *dsName)
		}
		ckDir := resolveCkptDir(*ckptDir, *modelPath)

		var m *core.Model
		var res core.TrainResult
		var ck *checkpoint.Checkpointer
		if *resume {
			st := loadLatestState(requireStore(ckDir, *ckptRetain, "train"), core.PhaseTrain)
			var err error
			m, err = core.RestoreTrainer(st)
			if err != nil {
				log.Fatalf("resume: %v", err)
			}
			ck = attachCheckpointer(&m.Cfg, ckDir, *ckptEvery, *ckptRetain, hook)
			tensor.SetWorkers(m.Cfg.Workers)
			res, err = m.ResumeTrain(b.Train, b.Valid, st)
			if err != nil {
				log.Fatalf("resume: %v", err)
			}
		} else {
			cfg := core.DefaultConfig(b.TauMax)
			cfg.Accel = *accel
			cfg.Seed = *seed
			cfg.Workers = resolveTrainWorkers(*workers)
			tensor.SetWorkers(cfg.Workers)
			cfg.Hook = hook
			ck = attachCheckpointer(&cfg, ckDir, *ckptEvery, *ckptRetain, hook)
			m = core.New(cfg, b.Train.X.Cols)
			res = m.Train(b.Train, b.Valid)
		}
		reportCkptErr(ck)
		log.Printf("trained %d epochs, best validation MSLE %.4f, model %d KB",
			res.Epochs, res.BestValidMSLE, m.SizeBytes()/1024)
		if sink != nil {
			if err := sink.EmitSnapshot("train.metrics", obs.Default); err != nil {
				log.Fatalf("write training log: %v", err)
			}
		}
		closeSink()
		if res.Interrupted {
			log.Printf("interrupted at epoch %d; model not published — rerun with -resume to continue from %s", res.Epochs, ckDir)
			os.Exit(3)
		}
		if err := saveModel(m, *modelPath); err != nil {
			log.Fatalf("save model: %v", err)
		}
		log.Printf("saved to %s", *modelPath)
	case "estimate":
		b := buildBundle()
		m := load(*modelPath)
		var actual, est []float64
		shown := 0
		for _, p := range b.Points {
			v := m.EstimateEncoded(b.TestX.Row(p.Query), p.Tau)
			actual = append(actual, p.Actual)
			est = append(est, v)
			if shown < *queries {
				fmt.Printf("query %3d  theta=%6.3f  actual=%6.0f  estimate=%8.1f\n",
					p.Query, p.Theta, p.Actual, v)
				shown++
			}
		}
		fmt.Println(metrics.Evaluate(actual, est))
	case "update":
		sink, closeSink := openTrainLog(*trainLog, *modelPath)
		var hook core.TrainHook
		if sink != nil {
			hook = trainLogHook(sink, *dsName)
		}
		ckDir := resolveCkptDir(*ckptDir, *modelPath)
		// Relabel against a perturbed dataset (fresh seed) and incrementally
		// retrain, then report the validation error trajectory.
		spec2 := spec
		spec2.Seed += 31
		opts2 := opts
		opts2.Seed += 31
		suite2 := bench.BuildSuite(spec2, opts2)

		var m *core.Model
		var res core.IncrementalResult
		var ck *checkpoint.Checkpointer
		if *resume {
			st := loadLatestState(requireStore(ckDir, *ckptRetain, "update"), core.PhaseIncremental)
			var err error
			m, err = core.RestoreTrainer(st)
			if err != nil {
				log.Fatalf("resume: %v", err)
			}
			ck = attachCheckpointer(&m.Cfg, ckDir, *ckptEvery, *ckptRetain, hook)
			tensor.SetWorkers(m.Cfg.Workers)
			res, err = m.ResumeIncrementalTrain(suite2.Bundle.Train, suite2.Bundle.Valid, st)
			if err != nil {
				log.Fatalf("resume: %v", err)
			}
		} else {
			m = load(*modelPath)
			m.Cfg.Workers = resolveTrainWorkers(*workers)
			tensor.SetWorkers(m.Cfg.Workers)
			m.Cfg.Hook = hook
			ck = attachCheckpointer(&m.Cfg, ckDir, *ckptEvery, *ckptRetain, hook)
			res = m.IncrementalTrain(suite2.Bundle.Train, suite2.Bundle.Valid, 0)
		}
		reportCkptErr(ck)
		log.Printf("incremental learning: %d epochs, validation MSLE %.4f (skipped=%v)",
			res.Epochs, res.ValidMSLE, res.Skipped)
		closeSink()
		if res.Interrupted {
			log.Printf("interrupted at epoch %d; model not published — rerun with -resume to continue from %s", res.Epochs, ckDir)
			os.Exit(3)
		}
		if err := saveModel(m, *modelPath); err != nil {
			log.Fatalf("save model: %v", err)
		}
	case "serve":
		m := load(*modelPath)
		var opts serveOptions
		opts.obsInterval = *obsInterval
		opts.peers = peerMetricsURLs(*peersFlag)
		closeTraces := func() {}
		if *traceLog != "" && *traceLog != "off" {
			sink, err := obs.NewFileSink(*traceLog)
			if err != nil {
				log.Fatalf("open trace log: %v", err)
			}
			opts.sampler = obs.NewTraceSampler(*traceRate, sink)
			sampler := opts.sampler
			closeTraces = func() {
				sampler.Close() // drain queued traces before the sink goes away
				if err := sink.Close(); err != nil {
					log.Printf("close trace log: %v", err)
				}
			}
			log.Printf("writing sampled request traces to %s", *traceLog)
		}
		if *auditRate > 0 || *autopilotOn {
			if oracle := buildAuditOracle(spec, *n, m.InDim); oracle != nil {
				opts.oracle = oracle
				opts.auditRate = *auditRate
			}
		}
		closeSLOLog := func() {}
		var sloSink *obs.Sink
		opts.slo, opts.capturer, sloSink, closeSLOLog = buildTelemetry(telemetrySettings{
			latencyBound:    sloLatency.Seconds(),
			latencyTarget:   *sloLatencyTarget,
			availTarget:     *sloAvailTarget,
			fastWindow:      *sloFast,
			slowWindow:      *sloSlow,
			interval:        *sloInterval,
			logPath:         *sloLog,
			profileDir:      *profileDir,
			profileRetain:   *profileRetain,
			profileCooldown: *profileCooldown,
			profileCPU:      *profileCPU,
			profileP99:      profileP99.Seconds(),
		})
		closeAutopilotJournal := func() {}
		if *autopilotOn {
			if opts.oracle == nil {
				log.Fatalf("-autopilot needs the exact audit oracle for ground-truth labels (Hamming datasets with matching dimensions only)")
			}
			cfg := autopilot.Config{
				Dir:           resolveAutopilotDir(*autopilotDir, *modelPath),
				Dwell:         *autopilotDwell,
				Cooldown:      *autopilotCooldown,
				MinSamples:    *autopilotMinSamples,
				TrainWorkers:  *autopilotWorkers,
				CkptEvery:     *ckptEvery,
				CkptRetain:    *ckptRetain,
				ShadowRate:    *autopilotShadowRate,
				ShadowMin:     *autopilotShadowMin,
				ShadowTimeout: *autopilotShadowTimeout,
				GateSweep:     *precisionGateSweep,
				GateSeed:      *seed,
				PublishPath:   *modelPath,
				SLOSink:       sloSink,
			}
			if path := resolveAutopilotJournal(*autopilotJournal, *modelPath); path != "" {
				sink, err := obs.NewFileSink(path)
				if err != nil {
					log.Fatalf("open autopilot journal: %v", err)
				}
				cfg.Journal = sink
				closeAutopilotJournal = func() {
					if err := sink.Close(); err != nil {
						log.Printf("close autopilot journal: %v", err)
					}
				}
				log.Printf("writing autopilot decisions to %s", path)
			}
			opts.autopilotCfg = &cfg
		}
		err := runServe(m, *addr, serveCfg, opts)
		closeTraces()
		closeSLOLog()
		closeAutopilotJournal()
		if err != nil {
			log.Fatalf("serve: %v", err)
		}
	case "router":
		err := runRouter(*addr, routerSettings{
			replicas:        *replicasFlag,
			vnodes:          *vnodes,
			probeInterval:   *probeInterval,
			ejectAfter:      *ejectAfter,
			retries:         *failoverRetries,
			bake:            *rolloutBake,
			maxRegression:   *rolloutMaxRegression,
			rolloutMinSamps: *rolloutMinSamples,
			journalPath:     *rolloutJournal,
			traceRate:       *traceRate,
			traceLog:        *traceLog,
		})
		if err != nil {
			log.Fatalf("router: %v", err)
		}
	case "tracescan":
		err := runTracescan(os.Stdout, tracescanSettings{
			files:    flag.Args(),
			topN:     *scanTop,
			skew:     *scanSkew,
			jsonPath: *scanJSON,
		})
		if err != nil {
			log.Fatalf("tracescan: %v", err)
		}
	case "fleetstat":
		if err := runFleetstat(os.Stdout, splitPeers(*peersFlag), *fleetInterval, nil); err != nil {
			log.Fatalf("fleetstat: %v", err)
		}
	case "obsbench":
		b := buildBundle()
		cfg := core.DefaultConfig(b.TauMax)
		cfg.Accel = *accel
		cfg.Seed = *seed
		// Latency does not depend on trained weights, so an untrained model
		// of the production architecture measures the same hot path.
		m := core.New(cfg, b.Train.X.Cols)
		rep, err := runObsBench(m, b.TestX, b.TauMax, *benchCalls)
		if err != nil {
			log.Fatalf("obsbench: %v", err)
		}
		rep.Dataset = *dsName
		rep.Records = *n
		if err := rep.write(*benchOut); err != nil {
			log.Fatalf("obsbench: %v", err)
		}
		log.Printf("obs on  : p50=%.1fµs p99=%.1fµs", rep.On.P50Micros, rep.On.P99Micros)
		log.Printf("obs off : p50=%.1fµs p99=%.1fµs", rep.Off.P50Micros, rep.Off.P99Micros)
		log.Printf("overhead: p50=%+.2f%% p99=%+.2f%% mean=%+.2f%% -> %s",
			rep.OverheadP50Pct, rep.OverheadP99Pct, rep.OverheadMeanPct, *benchOut)
		log.Printf("telemetry (sampler+slo at %.0fµs cadence): p50=%+.2f%% p99=%+.2f%% mean=%+.2f%%",
			rep.Telemetry.IntervalMicros, rep.Telemetry.OverheadP50Pct,
			rep.Telemetry.OverheadP99Pct, rep.Telemetry.OverheadMeanPct)
	case "servebench":
		b := buildBundle()
		// Serving throughput is measured at the paper's production
		// architecture (Section 9.1.3): at that size the Φ weights exceed
		// per-core cache, which is exactly the regime batching exists for.
		// Throughput does not depend on trained weights, so an untrained
		// model of that architecture measures the same hot path.
		cfg := core.PaperConfig(b.TauMax, 16)
		cfg.Accel = *accel
		cfg.Seed = *seed
		m := core.New(cfg, b.Train.X.Cols)
		out := *benchOut
		if out == "results/BENCH_obs.json" { // flag default belongs to obsbench
			out = "results/BENCH_serving.json"
		}
		rep, err := runServeBench(m, b.TestX, *benchCalls)
		if err != nil {
			log.Fatalf("servebench: %v", err)
		}
		rep.Dataset = *dsName
		rep.Records = *n
		if *clusterBench {
			cl, fo, err := runClusterBench(m, b.TestX)
			if err != nil {
				log.Fatalf("servebench -cluster: %v", err)
			}
			rep.Cluster, rep.Failover = cl, fo
			ct, err := runTracingOverheadBench(m, b.TestX, *benchCalls)
			if err != nil {
				log.Fatalf("servebench -cluster tracing: %v", err)
			}
			rep.ClusterTracing = ct
		}
		if err := rep.write(out); err != nil {
			log.Fatalf("servebench: %v", err)
		}
		log.Printf("per-request: %.0f est/s", rep.PerRequest.QPS)
		for _, b := range rep.Batched {
			log.Printf("batch %2d   : %.0f est/s (%.2fx), identical=%v", b.Size, b.QPS, b.Speedup, b.Identical)
		}
		log.Printf("engine cache off/on: %.0f / %.0f req/s (hit ratio %.2f)",
			rep.Engine.ColdQPS, rep.Engine.WarmQPS, rep.Engine.HitRatio)
		log.Printf("tracing overhead: p50 %+.2f%% (untraced %.0fus, traced %.0fus)",
			rep.Tracing.OverheadP50Pct, rep.Tracing.Untraced.P50Micros, rep.Tracing.Traced.P50Micros)
		log.Printf("queue wait p50/p95: %.0f/%.0fus, mean batch %.1f, flush mix %v -> %s",
			rep.Tracing.QueueWaitP50Us, rep.Tracing.QueueWaitP95Us, rep.Tracing.MeanBatchSize, rep.Tracing.FlushMix, out)
		if rep.Precision != nil {
			for _, tier := range rep.Precision.Tiers {
				for _, p := range tier.Points {
					log.Printf("precision %-4s (serves %-4s, gate pass=%v Δq=%.4f) batch %2d: p50 %7.1fus p99 %7.1fus %8.0f est/s (%.2fx)",
						tier.Tier, tier.Served, tier.GatePass, tier.QErrP99Delta,
						p.Batch, p.P50Us, p.P99Us, p.QPS, p.SpeedupP50)
				}
			}
		}
		if rep.Admission != nil {
			log.Printf("admission: %d/%d rejected 503 (%.1f%%), Retry-After on %d",
				rep.Admission.Rejected503, rep.Admission.Calls,
				100*rep.Admission.RejectedFraction, rep.Admission.RetryAfterSeen)
		}
		if rep.Cluster != nil {
			for _, r := range rep.Cluster.Runs {
				log.Printf("cluster %d replica(s): %.0f req/s (%.2fx, efficiency %.2f, hit ratio %.2f)",
					r.Replicas, r.QPS, r.Speedup, r.Efficiency, r.HitRatio)
			}
		}
		if rep.Failover != nil {
			log.Printf("failover: killed 1 of %d replicas mid-bench: %d client 5xx over %d calls, %d failovers, ejected=%v",
				rep.Failover.Replicas, rep.Failover.Client5xx, rep.Failover.Calls,
				rep.Failover.Failovers, rep.Failover.Ejected)
		}
		if ct := rep.ClusterTracing; ct != nil {
			for _, run := range ct.Runs {
				log.Printf("cluster tracing rate %.2f: p50 %+.2f%% p99 %+.2f%% (off %.0fus, on %.0fus); %d traces assembled, %d joined, %d tiling violations, %d dropped",
					run.Rate, run.OverheadP50Pct, run.OverheadP99Pct,
					ct.Off.P50Micros, run.On.P50Micros,
					run.TracesAssembled, run.TracesJoined, run.TilingViolations, run.SamplerDropped)
			}
		}
	case "autopilotbench":
		b := buildBundle()
		rep, err := runAutopilotBench(b.TestX, b.TauMax, *benchCalls, *accel, *seed)
		if err != nil {
			log.Fatalf("autopilotbench: %v", err)
		}
		rep.Dataset = *dsName
		rep.Records = *n
		out := *benchOut
		if out == "results/BENCH_obs.json" { // flag default belongs to obsbench
			out = "results/BENCH_autopilot.json"
		}
		if err := rep.write(out); err != nil {
			log.Fatalf("autopilotbench: %v", err)
		}
		log.Printf("trigger  : %.1fms observed (dwell %.0fms, excess %.1fms)",
			rep.TriggerLatencyMillis, rep.DwellMillis, rep.TriggerExcessMillis)
		log.Printf("retrain  : %.2fs   shadow: %.2fs   full cycle: %.2fs",
			rep.TrainSeconds, rep.ShadowSeconds, rep.CycleSeconds)
		log.Printf("shadow tap: p50 %+.2f%% p99 %+.2f%% (on %.0fus/%.0fus, off %.0fus/%.0fus)",
			rep.OverheadP50Pct, rep.OverheadP99Pct,
			rep.ShadowOn.P50Micros, rep.ShadowOn.P99Micros,
			rep.ShadowOff.P50Micros, rep.ShadowOff.P99Micros)
		log.Printf("swap     : %d client calls, %d errors, max stall %.0fus, version %d -> %d -> %s",
			rep.Swap.ClientCalls, rep.Swap.ClientErrors, rep.Swap.MaxStallMicro,
			rep.Swap.VersionBefore, rep.Swap.VersionAfter, out)
	case "trainbench":
		b := buildBundle()
		rep := runTrainBench(b, *accel, *seed, *benchEpochs)
		rep.Dataset = *dsName
		rep.Records = *n
		out := *benchOut
		if out == "results/BENCH_obs.json" { // flag default belongs to obsbench
			out = "results/BENCH_train.json"
		}
		if err := rep.write(out); err != nil {
			log.Fatalf("trainbench: %v", err)
		}
		if rep.Note != "" {
			log.Printf("note: %s", rep.Note)
		}
		for _, r := range rep.Runs {
			log.Printf("workers %2d: total %6.2fs  epoch mean %6.3fs  speedup %.2fx/%.2fx  best MSLE %.4f",
				r.Workers, r.TotalSeconds, r.EpochSecondsMean, r.SpeedupTotal, r.SpeedupEpoch, r.BestValidMSLE)
		}
		for _, kb := range rep.Kernels {
			log.Printf("kernel %-16s %dx%dx%d workers %2d: %6.2f GFLOP/s",
				kb.Kernel, kb.M, kb.K, kb.N, kb.Workers, kb.GFLOPS)
		}
		log.Printf("wrote %s", out)
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
}

// saveModel publishes the model through the checkpoint package's framed
// atomic writer: temp file + fsync + rename, with a CRC-checked header. The
// serving loader (startup and /admin/reload) can therefore never observe a
// torn model file, even if this process dies mid-save.
func saveModel(m *core.Model, path string) error {
	return checkpoint.SaveModel(path, m)
}

// resolveCkptDir maps the -ckpt-dir flag to a checkpoint directory: "" puts
// checkpoints next to the model file (<model>.ckpt), "off" disables
// checkpointing entirely (returned as "").
func resolveCkptDir(flagVal, modelPath string) string {
	switch flagVal {
	case "off":
		return ""
	case "":
		return modelPath + ".ckpt"
	default:
		return flagVal
	}
}

// resolveAutopilotDir maps -autopilot-dir to the staging directory the pilot
// checkpoints candidates into ("" puts it next to the model file).
func resolveAutopilotDir(flagVal, modelPath string) string {
	if flagVal == "" {
		return modelPath + ".autopilot"
	}
	return flagVal
}

// resolveAutopilotJournal maps -autopilot-journal to a JSONL path ("" puts it
// next to the model file, "off" disables and returns "").
func resolveAutopilotJournal(flagVal, modelPath string) string {
	switch flagVal {
	case "off":
		return ""
	case "":
		return modelPath + ".autopilot.jsonl"
	default:
		return flagVal
	}
}

// requireStore opens the checkpoint store for a -resume run, failing with a
// usage hint when checkpointing is disabled.
func requireStore(dir string, retain int, mode string) *checkpoint.Store {
	if dir == "" {
		log.Fatalf("%s: -resume needs checkpointing (-ckpt-dir must not be off)", mode)
	}
	store, err := checkpoint.OpenStore(dir, retain)
	if err != nil {
		log.Fatalf("open checkpoint store: %v", err)
	}
	return store
}

// loadLatestState loads the newest usable checkpoint from a store, logging
// any newer files skipped as corrupt, and verifies it belongs to the phase
// being resumed ("train" checkpoints resume with -mode train, "incremental"
// ones with -mode update).
func loadLatestState(store *checkpoint.Store, phase string) *core.TrainerState {
	st, seq, skipped, err := checkpoint.LoadLatest(store)
	if err != nil {
		log.Fatalf("resume: %v", err)
	}
	for _, s := range skipped {
		log.Printf("resume: checkpoint %d is corrupt or unreadable, falling back", s)
	}
	if st.Phase != phase {
		mode := "train"
		if st.Phase == core.PhaseIncremental {
			mode = "update"
		}
		log.Fatalf("resume: checkpoint %d in %s is from a %q run — resume it with -mode %s", seq, store.Dir(), st.Phase, mode)
	}
	log.Printf("resume: continuing from checkpoint %d (epoch %d) in %s", seq, st.Epoch, store.Dir())
	return st
}

// attachCheckpointer wires durable checkpointing and graceful-shutdown
// handling into a training config: the returned Checkpointer persists state
// through cfg.Hook (chained after the training-log hook) every `every`
// epochs, and SIGINT/SIGTERM request a cooperative stop through cfg.Stop so
// the run halts at an epoch boundary with that epoch checkpointed. Returns
// nil (and leaves cfg untouched) when dir is empty, i.e. -ckpt-dir off.
func attachCheckpointer(cfg *core.Config, dir string, every, retain int, hook core.TrainHook) *checkpoint.Checkpointer {
	if dir == "" {
		return nil
	}
	store, err := checkpoint.OpenStore(dir, retain)
	if err != nil {
		log.Fatalf("open checkpoint store: %v", err)
	}
	ck := checkpoint.NewCheckpointer(store, every)
	cfg.Hook = ck.Hook(hook)
	cfg.Stop = ck.StopRequested
	stopOnSignal(ck)
	log.Printf("checkpointing to %s every %d epoch(s), retaining %d", dir, every, retain)
	return ck
}

// stopOnSignal turns the first SIGINT/SIGTERM into a cooperative stop
// request: the trainer finishes the current epoch, the checkpoint hook
// flushes that epoch's state, and the process exits cleanly with resume
// instructions. A second signal falls through to the default handler and
// kills the process immediately (resume then loses at most the in-flight
// epoch).
func stopOnSignal(ck *checkpoint.Checkpointer) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-ch
		log.Printf("%v: stopping at the next epoch boundary (send again to kill)", s)
		ck.RequestStop()
		signal.Stop(ch)
	}()
}

// reportCkptErr surfaces checkpoint-write failures after a run; they cannot
// abort training from inside a hook, so they are reported here instead.
func reportCkptErr(ck *checkpoint.Checkpointer) {
	if ck == nil {
		return
	}
	if err := ck.Err(); err != nil {
		log.Printf("warning: checkpoint write failed: %v", err)
	}
}

// openTrainLog resolves the -trainlog flag into a JSONL sink. The returned
// close func checks the file Close error (same short-write concern as the
// model file).
func openTrainLog(flagVal, modelPath string) (*obs.Sink, func()) {
	path := flagVal
	if path == "" {
		path = modelPath + ".train.jsonl"
	}
	if path == "off" {
		return nil, func() {}
	}
	sink, err := obs.NewFileSink(path)
	if err != nil {
		log.Fatalf("open training log: %v", err)
	}
	log.Printf("writing training log to %s", path)
	return sink, func() {
		if err := sink.Close(); err != nil {
			log.Fatalf("close training log: %v", err)
		}
	}
}

// trainLogHook adapts a JSONL sink to the core.TrainHook contract: one
// "epoch" event per line with the losses, ω weights, and timing.
func trainLogHook(sink *obs.Sink, ds string) core.TrainHook {
	return func(ev core.TrainEvent) {
		fields := map[string]any{
			"dataset":    ds,
			"phase":      ev.Phase,
			"epoch":      ev.Epoch,
			"train_loss": ev.TrainLoss,
			"lr":         ev.LR,
			"epoch_ms":   float64(ev.EpochTime.Microseconds()) / 1e3,
		}
		if ev.HasValid {
			fields["valid_msle"] = ev.ValidMSLE
			fields["best_msle"] = ev.BestMSLE
			fields["improved"] = ev.Improved
			fields["early_stop"] = ev.EarlyStop
			fields["omega"] = ev.Omega
		}
		if err := sink.Emit("epoch", fields); err != nil {
			log.Fatalf("write training log: %v", err)
		}
	}
}

// buildAuditOracle regenerates the dataset behind spec and wraps it in an
// exact-count oracle for serve-time audit sampling. Only Hamming workloads
// qualify: there the encoding is the identity, so the transformed-space
// count the model is trained toward equals the true cardinality. A nil
// return (with a logged reason) disables auditing rather than failing serve.
func buildAuditOracle(spec dataset.Spec, n, inDim int) *simselect.EncodedOracle {
	if spec.Kind != dataset.HM {
		log.Printf("audit disabled: exact oracle needs a Hamming dataset (identity encoding), %s is %s", spec.Name, spec.Kind)
		return nil
	}
	if n > 0 {
		spec.N = n
	}
	oracle, err := simselect.NewEncodedOracleBits(dataset.Generate(spec).Bits)
	if err != nil {
		log.Printf("audit disabled: %v", err)
		return nil
	}
	if oracle.Dim() != inDim {
		log.Printf("audit disabled: dataset dim %d != model in_dim %d (model trained on a different dataset?)", oracle.Dim(), inDim)
		return nil
	}
	return oracle
}

// loadModel reads a model file saved by saveModel (also the /admin/reload
// path, hence the error return). Frame verification means a truncated or
// torn file is rejected here instead of decoding into a broken model; bare
// gob files from before the framed format still load.
func loadModel(path string) (*core.Model, error) {
	return checkpoint.LoadModel(path)
}

func load(path string) *core.Model {
	m, err := loadModel(path)
	if err != nil {
		log.Fatalf("load model %s: %v (train first)", path, err)
	}
	return m
}
