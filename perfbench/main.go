// Command perfbench is cardnet's benchmark: it builds cmd/cardnet from the
// checkout, trains the pinned fixture from the workload seed, spawns
// `cardnet -mode serve` and drives one workload against it over loopback
// HTTP. The last line of standard output is one JSON result; the line before
// it holds the host facts and fixture fingerprint. See README.md.
//
//	bash perfbench/run.sh --workload sweep-zipf --seed 3 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	setupSpawns = 7 // setup_s is the median over this many server starts
	clockTick   = 10 * time.Millisecond
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "point-fresh | sweep-zipf | update-stream")
	seed := flag.Int64("seed", 1, "workload seed: fixture training, query choice and op order")
	seconds := flag.Float64("seconds", 10, "minimum length of the measured phase")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run instead of end-to-end metrics")
	root := flag.String("root", ".", "root of the cardnet checkout to build and measure")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")

	res, facts, err := runBench(*root, *workload, *seed, *seconds, *trace == 1)
	if err != nil {
		log.Print(err)
		os.Exit(1)
	}
	factsLine, _ := json.Marshal(map[string]any{"facts": facts})
	resLine, _ := json.Marshal(res)
	fmt.Println(string(factsLine))
	fmt.Println(string(resLine))
	if !res.Correct {
		os.Exit(1)
	}
}

func runBench(root, name string, seed int64, seconds float64, traced bool) (*result, map[string]any, error) {
	w, err := findWorkload(name)
	if err != nil {
		return nil, nil, err
	}
	if root, err = filepath.Abs(root); err != nil {
		return nil, nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "cardnet")); err != nil {
		return nil, nil, fmt.Errorf("%s holds no cmd/cardnet to build: %w", root, err)
	}
	out := filepath.Join(root, ".bench_build")
	// The run directory holds the server logs and round models; it is kept
	// when the run fails, for the logs.
	dir := filepath.Join(out, "runs", fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}

	facts := hostFacts(root)
	facts["workload"], facts["seed"], facts["seconds"], facts["traced"] = name, seed, seconds, traced
	facts["calibration_start"] = calibrate()

	sha, err := treeHash(root)
	if err != nil {
		return nil, nil, err
	}
	bin := filepath.Join(out, "cardnet")
	log.Printf("building cmd/cardnet (source %s)", sha)
	if err := buildServer(root, bin, sha); err != nil {
		return nil, nil, err
	}
	facts["source_sha"] = sha

	f, err := buildFixture(filepath.Join(out, "fixture-"+sha))
	if err != nil {
		return nil, nil, err
	}
	if err := pruneFixtures(out, sha); err != nil {
		return nil, nil, err
	}
	facts["fixture_cached"] = f.cached
	facts["model_sha256"] = f.modelHash
	facts["model_bytes"] = f.model.SizeBytes()
	facts["fixture_valid_msle"] = f.validMSLE
	facts["fixture_train_s"] = f.trainSecs

	e := &env{f: f, q: splitFresh(f.fresh, seed), seed: seed, dir: dir}
	dur := time.Duration(seconds * float64(time.Second))
	lim := limits{minDur: dur, maxDur: 3*dur + 30*time.Second, minOps: minOps}
	r := &runner{e: e, w: w, bin: bin, sha: sha, lim: lim, facts: facts}
	var res *result
	if traced {
		res, err = r.traced(filepath.Join(out, "traces"))
	} else {
		res, err = r.untraced()
	}
	if err != nil {
		return nil, nil, err
	}
	facts["calibration_end"] = calibrate()
	return res, facts, os.RemoveAll(dir)
}

// pruneFixtures removes fixtures trained from other sources.
func pruneFixtures(out, sha string) error {
	old, err := filepath.Glob(filepath.Join(out, "fixture-*"))
	if err != nil {
		return err
	}
	for _, d := range old {
		if filepath.Base(d) != "fixture-"+sha {
			if err := os.RemoveAll(d); err != nil {
				return err
			}
		}
	}
	return nil
}

// runner runs one workload's phases against spawned servers.
type runner struct {
	e     *env
	w     workload
	bin   string
	sha   string
	lim   limits
	facts map[string]any
}

// start spawns a server on the fixture model and checks it was built from
// the source under test.
func (r *runner) start(tag string, extra ...string) (*server, error) {
	args := append([]string{"-precision", r.w.precision}, extra...)
	s, err := startServer(r.bin, r.e.f.modelPath, filepath.Join(r.e.dir, tag+".log"), args...)
	if err != nil {
		return nil, err
	}
	got, err := s.buildSHA()
	if err != nil {
		s.stop()
		return nil, err
	}
	if got != r.sha {
		s.stop()
		return nil, fmt.Errorf("served binary reports build %s, source is %s: stale binary", got, r.sha)
	}
	r.facts["served_build_sha"] = got
	return s, nil
}

func (r *runner) untraced() (*result, error) {
	var setups []float64
	var s *server
	for k := 0; k < setupSpawns; k++ {
		var err error
		if s, err = r.start(fmt.Sprintf("setup-%d", k)); err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		if k < setupSpawns-1 {
			s.stop()
		}
	}
	defer s.stop()

	log.Printf("%s: measuring for at least %s", r.w.name, r.lim.minDur)
	runtime.GC() // the fixture's garbage is collected before, not during, the phase
	steal0 := hostSteal()
	ph, err := r.w.measure(r.e, s, r.lim)
	if err != nil {
		return nil, err
	}
	r.facts["steal_ms"] = float64(hostSteal()-steal0) * ms(clockTick)
	heap, err := s.heap(true)
	if err != nil {
		return nil, err
	}
	sum, err := ph.t.lat.summarize()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.w.name, err)
	}
	r.facts["latency_samples"] = sum.N
	r.facts["p99_ms"] = sum.P99

	recs := ph.records
	if recs == nil {
		recs = r.e.f.records
	}
	qerrs, et := evaluate(r.e, s, recs)
	sorted := append([]float64(nil), qerrs...)
	sort.Float64s(sorted)

	rounds := ph.rounds
	if rounds == nil {
		if rounds, err = refresh(r.e, s, retrainRounds); err != nil {
			return nil, err
		}
	}
	r.facts["update_rounds"] = describeRounds(rounds)

	t := ph.t
	t.merge(et)
	if t.firstErr != "" {
		r.facts["first_error"] = t.firstErr
	}
	return &result{
		Correct:   t.violations == 0 && t.failed == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics: map[string]metric{
			"setup_s":   {median(setups), "s"},
			"p50_ms":    {sum.P50, "ms"},
			"p90_ms":    {sum.P90, "ms"},
			"ops_per_s": {float64(len(ph.t.lat)) / ph.wall.Seconds(), "1/s"},
			"qerr_mean": {mean(qerrs), "ratio"},
			"qerr_p99":  {quantile(sorted, 0.99), "ratio"},
			"heap_mb":   {float64(heap.HeapAlloc) / 1e6, "MB"},
			"update_s":  {updateSeconds(rounds), "s"},
		},
	}, nil
}

// traced runs the workload once untraced and once against a server that
// traces every request, and derives the per-layer metrics from the traced
// phase, the server's /metrics and trace log, and timed library calls.
func (r *runner) traced(traceDir string) (*result, error) {
	s, err := r.start("untraced")
	if err != nil {
		return nil, err
	}
	runtime.GC()
	ph0, err := r.w.measure(r.e, s, r.lim)
	s.stop()
	if err != nil {
		return nil, err
	}
	base, err := ph0.t.lat.summarize()
	if err != nil {
		return nil, err
	}

	tracelog := filepath.Join(r.e.dir, "server-traces.jsonl")
	if s, err = r.start("traced", "-trace-sample-rate", "1", "-tracelog", tracelog); err != nil {
		return nil, err
	}
	defer s.stop()
	r.e.spans = newSpanLog()
	before, err := s.metrics()
	if err != nil {
		return nil, err
	}
	cpu0, err := s.cpuTicks()
	if err != nil {
		return nil, err
	}
	heap0, err := s.heap(false)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	ph, err := r.w.measure(r.e, s, r.lim)
	if err != nil {
		return nil, err
	}
	after, err := s.metrics()
	if err != nil {
		return nil, err
	}
	cpu1, err := s.cpuTicks()
	if err != nil {
		return nil, err
	}
	heap1, err := s.heap(false)
	if err != nil {
		return nil, err
	}
	sum, err := ph.t.lat.summarize()
	if err != nil {
		return nil, err
	}
	rounds := ph.rounds
	if rounds == nil {
		if rounds, err = refresh(r.e, s, 1); err != nil {
			return nil, err
		}
	}
	s.stop() // drains the trace log
	stages, err := readTraceLog(tracelog)
	if err != nil {
		return nil, err
	}

	out := map[string]metric{}
	if err := probeLayers(r.e, out); err != nil {
		return nil, err
	}
	roundMetrics(rounds, out)
	layerMetrics(out, ph, before, after, stages)
	ops := float64(ph.t.attempted)
	out["proc.cpu_ms_per_op"] = metric{float64(cpu1-cpu0) * ms(clockTick) / ops, "ms"}
	out["proc.gc_cycles"] = metric{float64(heap1.NumGC - heap0.NumGC), "count"}
	out["obs.trace_overhead_pct"] = metric{100 * (sum.P50 - base.P50) / base.P50, "%"}
	r.facts["latency_samples"] = sum.N
	r.facts["traces"] = stages.Traces
	r.facts["update_rounds"] = describeRounds(rounds)

	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	spanPath := filepath.Join(traceDir, fmt.Sprintf("%s-%d.jsonl", r.w.name, r.e.seed))
	if err := r.e.spans.write(spanPath); err != nil {
		return nil, err
	}
	r.facts["spans"] = spanPath

	t := ph.t
	t.merge(ph0.t)
	if t.firstErr != "" {
		r.facts["first_error"] = t.firstErr
	}
	return &result{Correct: t.violations == 0 && t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: out}, nil
}

// layerMetrics derives the server-side per-layer metrics of a traced phase
// from /metrics deltas and the stage means of the trace log.
func layerMetrics(out map[string]metric, ph *phase, before, after *metricsSnap, st stageStats) {
	ops := float64(ph.t.attempted)
	stage := func(name string) float64 { return st.MeanUs[name] }
	out["http.admission_us"] = metric{stage("admission"), "us"}
	out["http.write_us"] = metric{stage("write"), "us"}
	e2eN, e2eSum := histDelta(before, after, "serving.e2e.seconds")
	clientUs := 1e3 * ph.t.reqMs / float64(ph.t.reqs)
	out["http.transport_us"] = metric{clientUs - 1e6*e2eSum/e2eN, "us"}
	out["http.non2xx"] = metric{counterDelta(before, after, "http.errors"), "count"}

	hits := counterDelta(before, after, "serving.cache.hits")
	misses := counterDelta(before, after, "serving.cache.misses")
	out["serving.cache.hit_ratio"] = metric{hits / (hits + misses), "ratio"}
	out["serving.cache.evictions"] = metric{counterDelta(before, after, "serving.cache.evictions"), "count"}
	out["serving.cache.entries"] = metric{after.Gauges["serving.cache.size"], "count"}
	out["serving.cache_us"] = metric{stage("cache"), "us"}

	out["serving.queue_wait_us"] = metric{stage("queue.wait"), "us"}
	out["serving.batch_form_us"] = metric{stage("batch.form"), "us"}
	batches, rows := histDelta(before, after, "serving.batch.size")
	out["serving.batch.mean_size"] = metric{rows / batches, "rows"}
	deadline := counterDelta(before, after, "serving.batch.flush_deadline")
	flushes := deadline + counterDelta(before, after, "serving.batch.flush_size") +
		counterDelta(before, after, "serving.batch.flush_shutdown")
	out["serving.flush.deadline_share"] = metric{deadline / flushes, "ratio"}
	out["serving.overloaded"] = metric{counterDelta(before, after, "serving.overloaded"), "count"}

	out["serving.forward_us"] = metric{stage("forward"), "us"}
	out["serving.forwards_per_op"] = metric{batches / ops, "count"}
	out["serving.rows_per_op"] = metric{rows / ops, "count"}
}

func describeRounds(rounds []roundTiming) []map[string]any {
	var out []map[string]any
	for _, r := range rounds {
		out = append(out, map[string]any{"total_s": r.total.Seconds(), "epochs": r.epochs, "skipped": r.skipped})
	}
	return out
}

// hostFacts records what the numbers were measured on.
func hostFacts(root string) map[string]any {
	facts := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu_model":  cpuModel(),
		"kernel":     readTrim("/proc/sys/kernel/osrelease"),
		"commit":     "none (not a git checkout)",
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if b, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			facts["commit"] = strings.TrimSpace(string(b))
		}
	}
	return facts
}

// hostSteal reads the host's steal ticks, or 0 where /proc/stat has none.
func hostSteal() uint64 {
	v, err := stealTicks(readTrim("/proc/stat"))
	if err != nil {
		return 0
	}
	return v
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func cpuModel() string {
	for _, line := range strings.Split(readTrim("/proc/cpuinfo"), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// calibrate times two host probes, so a slow host phase can be told from a
// regression: a scalar spin loop and a pass streaming 10 MB of weights.
func calibrate() map[string]float64 {
	spin := timeMedian(3, func() {
		x := uint64(88172645463325252)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		spinSink = x
	})
	weights := make([]float64, 10_000_000/8)
	for i := range weights {
		weights[i] = float64(i)
	}
	stream := timeMedian(5, func() {
		var s float64
		for _, w := range weights {
			s += w
		}
		streamSink = s
	})
	return map[string]float64{"spin_ms": ms(spin), "stream_10mb_ms": ms(stream)}
}

var (
	spinSink   uint64
	streamSink float64
)
