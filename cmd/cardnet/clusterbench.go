package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"cardnet/internal/cluster"
	"cardnet/internal/core"
	"cardnet/internal/obs"
	"cardnet/internal/obs/tracescan"
	"cardnet/internal/serving"
	"cardnet/internal/tensor"
)

// admissionBench records the admission-control surface of the serving stack
// under deliberate overload: a tiny queue, one worker, concurrent clients.
// The 503s here are the contract — load the cluster router fails over on.
type admissionBench struct {
	Calls            int     `json:"calls"`
	Rejected503      int     `json:"rejected_503"`
	RetryAfterSeen   int     `json:"retry_after_seen"`
	RejectedFraction float64 `json:"rejected_fraction"`
}

// clusterRun is one fleet size's throughput measurement through the router.
type clusterRun struct {
	Replicas   int     `json:"replicas"`
	QPS        float64 `json:"qps"`
	Speedup    float64 `json:"speedup"`    // vs the 1-replica run
	Efficiency float64 `json:"efficiency"` // speedup / replicas
	HitRatio   float64 `json:"hit_ratio"`  // estimate-cache hits across the fleet
}

// clusterBenchSection is the router scaling experiment: the same working set
// of distinct queries driven through 1, 2, and 4 replicas. The working set
// is sized past one replica's estimate cache, so the single replica
// thrashes while sharded fleets keep every partition cache-hot — on one
// machine the scaling comes from aggregate cache, which is exactly the
// cache-affinity claim the router makes.
type clusterBenchSection struct {
	VNodes         int          `json:"vnodes"`
	CacheEntries   int          `json:"cache_entries_per_replica"`
	WorkingSetKeys int          `json:"working_set_keys"`
	Calls          int          `json:"calls"`
	Runs           []clusterRun `json:"runs"`
}

// tracingRateRun is one traced configuration of the tracing-overhead
// experiment: client latency at a sample rate, plus the tracescan verdict
// over the logs that run produced (head-based decision propagation means
// every router-sampled trace must join its replica half at any rate).
type tracingRateRun struct {
	Rate             float64      `json:"rate"`
	On               latencyStats `json:"on"`
	OverheadP50Pct   float64      `json:"overhead_p50_pct"`
	OverheadP99Pct   float64      `json:"overhead_p99_pct"`
	TracesAssembled  int          `json:"traces_assembled"`
	TracesJoined     int          `json:"traces_joined"`
	TilingViolations int          `json:"tiling_violations"`
	SamplerDropped   uint64       `json:"sampler_dropped"`
}

// clusterTracingSection prices the distributed-tracing pipeline through the
// router: identical 2-replica fleets driven with tracing off, at the
// operational default sample rate, and at the full incident rate (1.0),
// in rotating rounds so machine drift averages out. Stage marks and
// exemplar capture are paid either way; the delta is the sampling decision
// plus trace emission on three processes (emission is asynchronous, so on a
// multi-core host the visible delta is smaller still). Each traced run's
// logs are then assembled with tracescan inside the bench, so the section
// also vouches that every router-sampled request joined and tiled.
type clusterTracingSection struct {
	Replicas int              `json:"replicas"`
	Off      latencyStats     `json:"tracing_off"`
	Runs     []tracingRateRun `json:"runs"`
}

// failoverBenchSection records the mid-bench replica-kill experiment: a
// 2-replica fleet loses one replica partway through and the client-visible
// 5xx count must stay zero (failover + ejection absorb the loss).
type failoverBenchSection struct {
	Replicas  int    `json:"replicas"`
	Calls     int    `json:"calls"`
	Client5xx int    `json:"client_5xx"`
	Failovers uint64 `json:"failovers"`
	Ejected   bool   `json:"replica_ejected"`
}

// benchClient is tuned for many short same-host requests.
func benchClient() *http.Client {
	return &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 64},
	}
}

// runAdmissionBench floods a deliberately tiny engine (queue depth 2, one
// worker, no cache) through the real HTTP handler and counts what clients
// see: 503s, Retry-After hints, and the rejected fraction.
func runAdmissionBench(m *core.Model, testX *tensor.Matrix) (*admissionBench, error) {
	eng := serving.NewEngine(serving.NewRegistry(m), serving.Config{
		MaxBatch:     1,
		MaxWait:      0,
		QueueDepth:   2,
		Workers:      1,
		CacheEntries: -1,
	})
	defer eng.Close()
	ts := httptest.NewServer(newServeMux(eng, serveOptions{}))
	defer ts.Close()
	client := benchClient()

	const clients, per = 16, 50
	bodies := make([][]byte, clients)
	for c := range bodies {
		bodies[c] = estimateBodyJSON(testX.Row(c%testX.Rows), c%(m.Cfg.TauMax+1))
	}
	var rejected, retryAfter, errs atomic.Int64
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				resp, err := client.Post(ts.URL+"/estimate", "application/json", bytes.NewReader(bodies[c]))
				if err != nil {
					errs.Add(1)
					continue
				}
				if resp.StatusCode == http.StatusServiceUnavailable {
					rejected.Add(1)
					if resp.Header.Get("Retry-After") != "" {
						retryAfter.Add(1)
					}
				}
				resp.Body.Close()
			}
		}(c)
	}
	wg.Wait()
	if n := errs.Load(); n > 0 {
		return nil, fmt.Errorf("admission bench: %d transport errors", n)
	}
	total := clients * per
	return &admissionBench{
		Calls:            total,
		Rejected503:      int(rejected.Load()),
		RetryAfterSeen:   int(retryAfter.Load()),
		RejectedFraction: float64(rejected.Load()) / float64(total),
	}, nil
}

// estimateBodyJSON builds the POST /estimate body for one encoded query.
func estimateBodyJSON(x []float64, tau int) []byte {
	var b bytes.Buffer
	b.WriteString(`{"x":[`)
	for i, v := range x {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%g", v)
	}
	fmt.Fprintf(&b, `],"tau":%d}`, tau)
	return b.Bytes()
}

// benchFleet is the in-process stand-in for N `cardnet serve` replicas plus
// a router: real handler trees, real engines, real proxying.
type benchFleet struct {
	rt         *cluster.Router
	front      *httptest.Server
	replicas   []*httptest.Server
	engines    []*serving.Engine
	reg        *obs.Registry
	samplers   []*obs.TraceSampler
	sinks      []*obs.Sink
	tracePaths []string
	closed     bool
}

// newBenchFleet builds an n-replica fleet behind a router. A non-empty
// traceDir turns on the tracing pipeline at the given sample rate: one
// JSONL sink per replica plus one for the router.
func newBenchFleet(m *core.Model, n, cacheEntries int, probe time.Duration, ejectAfter int, traceDir string, traceRate float64) (*benchFleet, error) {
	f := &benchFleet{reg: obs.NewRegistry()}
	sampler := func(name string) (*obs.TraceSampler, error) {
		if traceDir == "" {
			return nil, nil
		}
		path := filepath.Join(traceDir, name)
		sink, err := obs.NewFileSink(path)
		if err != nil {
			return nil, err
		}
		f.sinks = append(f.sinks, sink)
		f.tracePaths = append(f.tracePaths, path)
		sp := obs.NewTraceSampler(traceRate, sink)
		f.samplers = append(f.samplers, sp)
		return sp, nil
	}
	bases := make([]string, n)
	for i := 0; i < n; i++ {
		eng := serving.NewEngine(serving.NewRegistry(m), serving.Config{
			MaxBatch:     32,
			QueueDepth:   4096,
			CacheEntries: cacheEntries,
		})
		f.engines = append(f.engines, eng)
		sp, err := sampler(fmt.Sprintf("replica-%d.trace.jsonl", i))
		if err != nil {
			f.close()
			return nil, err
		}
		ts := httptest.NewServer(newServeMux(eng, serveOptions{sampler: sp}))
		f.replicas = append(f.replicas, ts)
		bases[i] = ts.URL
	}
	routerSampler, err := sampler("router.trace.jsonl")
	if err != nil {
		f.close()
		return nil, err
	}
	rt, err := cluster.New(cluster.Config{
		Replicas:      bases,
		Registry:      f.reg,
		ProbeInterval: probe,
		EjectAfter:    ejectAfter,
		Sampler:       routerSampler,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.rt = rt
	f.front = httptest.NewServer(rt.Handler())
	return f, nil
}

func (f *benchFleet) close() {
	if f.closed {
		return
	}
	f.closed = true
	if f.front != nil {
		f.front.Close()
	}
	if f.rt != nil {
		f.rt.Close()
	}
	for _, ts := range f.replicas {
		ts.Close()
	}
	for _, eng := range f.engines {
		eng.Close()
	}
	for _, sp := range f.samplers {
		sp.Close() // drain queued traces before the sinks close
	}
	for _, s := range f.sinks {
		s.Close()
	}
	f.samplers, f.sinks = nil, nil
}

// runClusterBench measures aggregate throughput through the router at 1, 2,
// and 4 replicas over a fixed working set of distinct queries, then runs the
// kill-a-replica failover experiment at 2 replicas.
func runClusterBench(m *core.Model, testX *tensor.Matrix) (*clusterBenchSection, *failoverBenchSection, error) {
	const cacheEntries = 320
	tauMax := m.Cfg.TauMax
	// Distinct queries x (the cache holds one curve per x): 1.6× one
	// replica's cache, so a lone replica's LRU thrashes under the cyclic scan
	// while each shard of a 2+-replica split fits its cache. The test split
	// is small (a dozen queries), so each variant flips one bit of a test row.
	workingSet := cacheEntries * 8 / 5
	bodies := make([][]byte, workingSet)
	for i := range bodies {
		x := append([]float64(nil), testX.Row(i%testX.Rows)...)
		b := (i / testX.Rows) % len(x)
		x[b] = 1 - x[b]
		bodies[i] = estimateBodyJSON(x, i%(tauMax+1))
	}
	calls := 6 * workingSet

	sec := &clusterBenchSection{
		VNodes:         cluster.DefaultVNodes,
		CacheEntries:   cacheEntries,
		WorkingSetKeys: workingSet,
		Calls:          calls,
	}
	client := benchClient()
	for _, n := range []int{1, 2, 4} {
		f, err := newBenchFleet(m, n, cacheEntries, 0, 0, "", 0)
		if err != nil {
			return nil, nil, err
		}
		qps, hit, err := driveFleet(client, f, bodies, calls, -1, nil)
		f.close()
		if err != nil {
			return nil, nil, err
		}
		run := clusterRun{Replicas: n, QPS: qps, HitRatio: hit}
		if len(sec.Runs) > 0 && sec.Runs[0].QPS > 0 {
			run.Speedup = qps / sec.Runs[0].QPS
			run.Efficiency = run.Speedup / float64(n)
		} else {
			run.Speedup = 1
			run.Efficiency = 1
		}
		sec.Runs = append(sec.Runs, run)
	}

	// Failover: 2 replicas, aggressive probing, one replica hard-killed a
	// third of the way in.
	f, err := newBenchFleet(m, 2, cacheEntries, 20*time.Millisecond, 2, "", 0)
	if err != nil {
		return nil, nil, err
	}
	defer f.close()
	f.rt.Start()
	foCalls := 4 * workingSet
	var bad atomic.Int64
	_, _, err = driveFleet(client, f, bodies, foCalls, foCalls/3, &bad)
	if err != nil {
		return nil, nil, err
	}
	fo := &failoverBenchSection{
		Replicas:  2,
		Calls:     foCalls,
		Client5xx: int(bad.Load()),
		Failovers: f.reg.Counter("cluster.failovers").Value(),
		Ejected:   f.rt.Ring().Len() == 1,
	}
	return sec, fo, nil
}

// runTracingOverheadBench measures what cluster-wide tracing costs the
// client: sequential request latency through three otherwise-identical
// 2-replica fleets — tracing off, the operational default sample rate
// (0.01), and the full incident rate (1.0) — interleaved in rotating
// rounds so machine drift is charged to every configuration equally.
// Each traced run's logs are then assembled with tracescan, so the section
// also vouches that router-sampled requests joined and tiled at both rates.
func runTracingOverheadBench(m *core.Model, testX *tensor.Matrix, calls int) (*clusterTracingSection, error) {
	const cacheEntries = 1024
	tauMax := m.Cfg.TauMax
	keys := cacheEntries / 2 // working set fits every cache: steady-state latency
	if max := testX.Rows * (tauMax + 1); keys > max {
		keys = max
	}
	bodies := make([][]byte, keys)
	for i := range bodies {
		bodies[i] = estimateBodyJSON(testX.Row(i%testX.Rows), (i/testX.Rows)%(tauMax+1))
	}

	off, err := newBenchFleet(m, 2, cacheEntries, 0, 0, "", 0)
	if err != nil {
		return nil, err
	}
	defer off.close()

	type tracedRun struct {
		rate  float64
		fleet *benchFleet
		lats  []float64
	}
	traced := make([]*tracedRun, 0, 2)
	for _, rate := range []float64{0.01, 1.0} {
		dir, err := os.MkdirTemp("", "cardnet-tracebench-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		f, err := newBenchFleet(m, 2, cacheEntries, 0, 0, dir, rate)
		if err != nil {
			return nil, err
		}
		defer f.close()
		traced = append(traced, &tracedRun{rate: rate, fleet: f})
	}

	client := benchClient()
	drive := func(f *benchFleet, start, n int) ([]float64, error) {
		lats := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			t0 := time.Now()
			resp, err := client.Post(f.front.URL+"/estimate", "application/json", bytes.NewReader(bodies[(start+i)%len(bodies)]))
			if err != nil {
				return nil, err
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return nil, fmt.Errorf("tracing bench: status %d", resp.StatusCode)
			}
			lats = append(lats, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		return lats, nil
	}

	fleets := []*benchFleet{off, traced[0].fleet, traced[1].fleet}
	var offLats []float64
	sinks := []*[]float64{&offLats, &traced[0].lats, &traced[1].lats}

	// Warm pass on each fleet populates caches and HTTP connection pools.
	for _, f := range fleets {
		if _, err := drive(f, 0, keys); err != nil {
			return nil, err
		}
	}

	// Interleave per request, rotating which fleet goes first: a GC pause or
	// scheduler blip lands on whichever request happens to be in flight, so
	// machine noise spreads uniformly across the three configurations instead
	// of being charged to whichever fleet owned that time slice — which is
	// what dominates tail percentiles on a small host.
	for i := 0; i < calls; i++ {
		for k := range fleets {
			j := (i + k) % len(fleets)
			l, err := drive(fleets[j], i, 1)
			if err != nil {
				return nil, err
			}
			*sinks[j] = append(*sinks[j], l...)
		}
	}

	sec := &clusterTracingSection{Replicas: 2, Off: summarize(offLats)}
	for _, tc := range traced {
		// Drops only happen on the request path (Emit), so the counter is
		// final once driving stops; read it before close nils the samplers.
		var dropped uint64
		for _, sp := range tc.fleet.samplers {
			dropped += sp.Dropped()
		}
		// Flush this fleet's sinks, then hold the bench to the tentpole's
		// own standard: every router-sampled request assembles and tiles.
		paths := append([]string(nil), tc.fleet.tracePaths...)
		tc.fleet.close()
		events, err := tracescan.LoadFiles(paths)
		if err != nil {
			return nil, err
		}
		rep := tracescan.BuildReport(events, 5000, 5)
		run := tracingRateRun{
			Rate:             tc.rate,
			On:               summarize(tc.lats),
			TracesAssembled:  rep.Traces,
			TracesJoined:     rep.Joined,
			TilingViolations: rep.TilingViolations,
			SamplerDropped:   dropped,
		}
		run.OverheadP50Pct = overheadPct(run.On.P50Micros, sec.Off.P50Micros)
		run.OverheadP99Pct = overheadPct(run.On.P99Micros, sec.Off.P99Micros)
		sec.Runs = append(sec.Runs, run)
	}
	return sec, nil
}

// driveFleet pushes calls requests through the fleet's router from 4
// concurrent clients cycling the working set in order (the cyclic scan is
// what defeats a too-small LRU). killAt >= 0 hard-kills the last replica
// after that many of client 0's requests; bad counts 5xx responses. Returns
// aggregate QPS and the fleet-wide estimate-cache hit ratio, measured after
// one warm pass.
func driveFleet(client *http.Client, f *benchFleet, bodies [][]byte, calls, killAt int, bad *atomic.Int64) (qps, hitRatio float64, err error) {
	post := func(i int) (int, error) {
		resp, err := client.Post(f.front.URL+"/estimate", "application/json", bytes.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	// Warm pass: populate every replica's cache partition.
	for i := range bodies {
		if _, err := post(i); err != nil {
			return 0, 0, err
		}
	}

	hits0 := obs.Default.Counter("serving.cache.hits").Value()
	miss0 := obs.Default.Counter("serving.cache.misses").Value()
	const clients = 4
	per := calls / clients
	var wg sync.WaitGroup
	var errs atomic.Int64
	wg.Add(clients)
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if c == 0 && killAt >= 0 && i == killAt/clients {
					victim := f.replicas[len(f.replicas)-1]
					victim.CloseClientConnections()
					victim.Close()
				}
				code, err := post(c*per + i)
				if err != nil {
					errs.Add(1)
					continue
				}
				if bad != nil && code >= 500 {
					bad.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	if n := errs.Load(); n > 0 {
		return 0, 0, fmt.Errorf("cluster bench: %d transport errors", n)
	}
	hits := float64(obs.Default.Counter("serving.cache.hits").Value() - hits0)
	misses := float64(obs.Default.Counter("serving.cache.misses").Value() - miss0)
	if hits+misses > 0 {
		hitRatio = hits / (hits + misses)
	}
	return float64(per*clients) / elapsed, hitRatio, nil
}
