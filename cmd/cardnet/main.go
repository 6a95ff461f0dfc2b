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
//
// Train and update write a per-epoch JSONL training log (default
// <model>.train.jsonl; -trainlog off disables) and durable checkpoints
// (default <model>.ckpt directory; tune with -ckpt-dir/-ckpt-every/
// -ckpt-retain). SIGINT/SIGTERM stop the run at the next epoch boundary with
// that epoch checkpointed; -resume continues bit-identically from the newest
// usable checkpoint, given the same dataset flags. Finished models are
// published atomically (temp file + fsync + rename with a CRC-checked
// header), so the serve loader never sees a torn file. Both modes run one
// driver (runTraining), fresh or resumed. Serve runs the
// internal/serving batched engine (micro-batching of whatever is queued,
// admission control, estimate cache of one curve per packed x, hot model
// swap — tune with -maxbatch/-queue/-workers/-cache) and exposes POST/GET /estimate,
// POST /admin/reload, /metrics (obs registry snapshot), /healthz, and
// /debug/pprof/*; it shuts down gracefully on SIGINT/SIGTERM, through the
// same HTTP lifecycle as the router (serveHTTP). Every JSONL log flag
// resolves the same way: "off" disables, "" takes the flag's default, and
// anything else is a path (resolveLog). Router fronts
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
// slowest traces (tune with -scan-top/-scan-skew/-scan-json). Performance is
// measured by the separate perfbench harness (see BENCHMARK.json), not here.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"runtime"
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
	mode := flag.String("mode", "train", "train | estimate | update | serve | router | tracescan")
	dsName := flag.String("dataset", "HM-ImageNet", "dataset name from the Table 2 registry")
	modelPath := flag.String("model", "cardnet-model.gob", "model file (input for estimate/update/serve, output for train)")
	n := flag.Int("n", 1200, "dataset size")
	accel := flag.Bool("accel", true, "use the accelerated CardNet-A encoder")
	queries := flag.Int("queries", 10, "estimate: number of test queries to answer")
	seed := flag.Int64("seed", 7, "random seed")
	addr := flag.String("addr", ":8089", "serve/router: HTTP listen address")
	trainLog := flag.String("trainlog", "", `train/update: JSONL epoch-event log path ("" = <model>.train.jsonl, "off" = disabled)`)
	maxBatch := flag.Int("maxbatch", 32, "serve: max requests coalesced into one forward pass")
	queueDepth := flag.Int("queue", 256, "serve: admission queue depth (full queue -> 503)")
	workers := flag.Int("workers", 0, "train/update: data-parallel training shards (0 = all CPUs); serve: batch workers (0 = GOMAXPROCS)")
	cacheEntries := flag.Int("cache", 4096, "serve: estimate cache capacity in query curves (negative disables)")
	precision := flag.String("precision", "f64", "serve: inference plan tier (f64 | f32); the f32 plan serves only if the accuracy gate passes, else the f64 plan")
	precisionGateDelta := flag.Float64("precision-gate-delta", infer.DefaultGateMaxDelta, "serve: max q-error p99 delta vs the f64 plan the f32 plan may add before falling back to f64")
	precisionGateSweep := flag.Int("precision-gate-sweep", infer.DefaultGateSweep, "serve: validation queries the f32 gate evaluates per compile")
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
	replicasFlag := flag.String("replicas", "", "router: comma-separated replica base URLs to front (host:port or URL)")
	vnodes := flag.Int("vnodes", cluster.DefaultVNodes, "router: virtual nodes per replica on the consistent-hash ring")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "router: gap between replica health-probe sweeps")
	ejectAfter := flag.Int("eject-after", 3, "router: consecutive failed probes before a replica leaves the ring")
	failoverRetries := flag.Int("failover-retries", 2, "router: extra ring nodes tried after the primary rejects or is unreachable")
	rolloutBake := flag.Duration("rollout-bake", 30*time.Second, "router: canary bake period before the promote/rollback verdict")
	rolloutMaxRegression := flag.Float64("rollout-max-regression", 0.25, "router: tolerated canary q-error overshoot vs the fleet median before rollback")
	rolloutMinSamples := flag.Int("rollout-min-samples", 20, "router: q-error samples the canary window needs before its EWMA is trusted")
	rolloutJournal := flag.String("rollout-journal", "off", `router: JSONL rollout-decision journal path ("off" = disabled)`)
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
		QueueDepth:   *queueDepth,
		Workers:      *workers,
		CacheEntries: *cacheEntries,
	}
	planCfg := serving.PlanConfig{
		Precision: precTier,
		Gate:      infer.GateConfig{MaxQErrP99Delta: *precisionGateDelta, Sweep: *precisionGateSweep, Seed: *seed},
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
	case "train", "update":
		ts := trainSettings{
			dataset:    *dsName,
			model:      *modelPath,
			trainLog:   *trainLog,
			ckptDir:    *ckptDir,
			ckptEvery:  *ckptEvery,
			ckptRetain: *ckptRetain,
			workers:    *workers,
			resume:     *resume,
		}
		var job trainJob
		if *mode == "train" {
			b := buildBundle()
			cfg := core.DefaultConfig(b.TauMax)
			cfg.Accel = *accel
			cfg.Seed = *seed
			job = trainJob{phase: core.PhaseTrain, train: b.Train, valid: b.Valid,
				start: func() *core.Model { return core.New(cfg, b.Train.X.Cols) }}
		} else {
			// Relabel against a perturbed dataset (fresh seed) and
			// incrementally retrain the published model.
			spec.Seed += 31
			opts.Seed += 31
			b := buildBundle()
			job = trainJob{phase: core.PhaseIncremental, train: b.Train, valid: b.Valid,
				start: func() *core.Model { return load(*modelPath) }}
		}
		err := runTraining(context.Background(), job, ts)
		if errors.Is(err, errInterrupted) {
			os.Exit(3)
		}
		if err != nil {
			log.Fatalf("%s: %v", *mode, err)
		}
	case "estimate":
		b := buildBundle()
		plan, err := infer.Lower(load(*modelPath), infer.PrecisionF64)
		if err != nil {
			log.Fatalf("lower model %s: %v", *modelPath, err)
		}
		var actual, est []float64
		shown := 0
		for _, p := range b.Points {
			v := plan.Estimate(b.TestX.Row(p.Query), p.Tau)
			actual = append(actual, p.Actual)
			est = append(est, v)
			if shown < *queries {
				fmt.Printf("query %3d  theta=%6.3f  actual=%6.0f  estimate=%8.1f\n",
					p.Query, p.Theta, p.Actual, v)
				shown++
			}
		}
		fmt.Println(metrics.Evaluate(actual, est))
	case "serve":
		ln := listen(*addr)
		m := load(*modelPath)
		var lg logs
		opts := serveOptions{obsInterval: *obsInterval, sampler: lg.traces(*traceLog, *traceRate)}
		if *auditRate > 0 || *autopilotOn {
			if oracle := buildAuditOracle(spec, *n, m.InDim); oracle != nil {
				opts.oracle = oracle
				opts.auditRate = *auditRate
			}
		}
		sloSink := lg.open("slolog", *sloLog, *modelPath)
		opts.slo, opts.capturer = buildTelemetry(telemetrySettings{
			latencyBound:    sloLatency.Seconds(),
			latencyTarget:   *sloLatencyTarget,
			availTarget:     *sloAvailTarget,
			fastWindow:      *sloFast,
			slowWindow:      *sloSlow,
			interval:        *sloInterval,
			sink:            sloSink,
			profileDir:      *profileDir,
			profileRetain:   *profileRetain,
			profileCooldown: *profileCooldown,
			profileCPU:      *profileCPU,
			profileP99:      profileP99.Seconds(),
		})
		if *autopilotOn {
			if opts.oracle == nil {
				log.Fatalf("-autopilot needs the exact audit oracle for ground-truth labels (Hamming datasets with matching dimensions only)")
			}
			opts.autopilotCfg = &autopilot.Config{
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
				Journal:       lg.open("autopilot-journal", *autopilotJournal, *modelPath),
			}
		}
		err := runServe(context.Background(), ln, m, serveCfg, planCfg, opts)
		if err = errors.Join(err, lg.close()); err != nil {
			log.Fatalf("serve: %v", err)
		}
	case "router":
		ln := listen(*addr)
		var lg logs
		err := runRouter(context.Background(), ln, routerSettings{
			replicas:        *replicasFlag,
			vnodes:          *vnodes,
			probeInterval:   *probeInterval,
			ejectAfter:      *ejectAfter,
			retries:         *failoverRetries,
			bake:            *rolloutBake,
			maxRegression:   *rolloutMaxRegression,
			rolloutMinSamps: *rolloutMinSamples,
			journal:         lg.open("rollout-journal", *rolloutJournal, *modelPath),
			sampler:         lg.traces(*traceLog, *traceRate),
		})
		if err = errors.Join(err, lg.close()); err != nil {
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
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
}

// listen binds the HTTP address of serve and router mode, before either
// loads anything, so a taken port fails at once.
func listen(addr string) net.Listener {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	return ln
}

// resolveAutopilotDir maps -autopilot-dir to the staging directory the pilot
// checkpoints candidates into ("" puts it next to the model file).
func resolveAutopilotDir(flagVal, modelPath string) string {
	if flagVal == "" {
		return modelPath + ".autopilot"
	}
	return flagVal
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

// load reads a published model file (checkpoint.LoadModel verifies its
// frame, so a truncated or torn file is refused) or exits.
func load(path string) *core.Model {
	m, err := checkpoint.LoadModel(path)
	if err != nil {
		log.Fatalf("load model %s: %v (train first)", path, err)
	}
	return m
}
