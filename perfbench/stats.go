package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// tailSamples is the number of samples a reported percentile must leave
// beyond it: p99 needs at least 1000 samples.
const tailSamples = 10

// latencies is a sample of durations in milliseconds.
type latencies []float64

// summary is a timing reported as its median and tail, with the sample count
// the tail rests on.
type summary struct {
	N             int
	P50, P90, P99 float64
}

// supports reports whether n samples leave tailSamples beyond quantile q.
func supports(n int, q float64) bool {
	return float64(n)*(1-q) >= tailSamples-1e-9
}

// quantile returns the nearest-rank q-quantile of an ascending sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// summarize returns the median, p90 and p99 of l. It fails when p99 would
// rest on fewer than tailSamples samples beyond it.
func (l latencies) summarize() (summary, error) {
	if !supports(len(l), 0.99) {
		return summary{}, fmt.Errorf("%d samples leave fewer than %d beyond p99", len(l), tailSamples)
	}
	s := append([]float64(nil), l...)
	sort.Float64s(s)
	return summary{N: len(s), P50: quantile(s, 0.5), P90: quantile(s, 0.9), P99: quantile(s, 0.99)}, nil
}

// median returns the middle value of xs (the mean of the middle two for an
// even count), or NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// op is one seeded request target: a query (by index into the workload's
// query list) and a transformed threshold.
type op struct {
	Query int
	Tau   int
}

// pointOps returns n ops over queries 0..n-1 in order, each at a seeded τ in
// [0, tauMax]. Every query appears once, so no op can hit the cache.
func pointOps(n, tauMax int, seed int64) []op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{Query: i, Tau: rng.Intn(tauMax + 1)}
	}
	return ops
}

// zipfQueries returns n query indices in [0, pool) drawn Zipf(s) from a
// seeded generator: rank 0 is the most popular query.
func zipfQueries(n, pool int, s float64, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, s, 1, uint64(pool-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// zipfOps is zipfQueries where each query is always asked at its own
// seeded τ, so the pool has one cache key per query.
func zipfOps(n, pool, tauMax int, s float64, seed int64) []op {
	rng := rand.New(rand.NewSource(seed + 1))
	taus := make([]int, pool)
	for i := range taus {
		taus[i] = rng.Intn(tauMax + 1)
	}
	qs := zipfQueries(n, pool, s, seed)
	ops := make([]op, n)
	for i, q := range qs {
		ops[i] = op{Query: q, Tau: taus[q]}
	}
	return ops
}

// metricsSnap is the part of cardnet's JSON /metrics body the benchmark
// reads.
type metricsSnap struct {
	Counters   map[string]float64           `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]histSnap          `json:"histograms"`
	Info       map[string]map[string]string `json:"info"`
}

type histSnap struct {
	Count float64 `json:"count"`
	Sum   float64 `json:"sum"`
}

func parseMetrics(body []byte) (*metricsSnap, error) {
	var s metricsSnap
	if err := json.Unmarshal(body, &s); err != nil {
		return nil, fmt.Errorf("parse /metrics: %w", err)
	}
	return &s, nil
}

// counterDelta is after − before for a counter; a counter absent from both
// snapshots (never registered) reads 0.
func counterDelta(before, after *metricsSnap, name string) float64 {
	return after.Counters[name] - before.Counters[name]
}

// histDelta returns the observation count and sum a histogram gained between
// two snapshots.
func histDelta(before, after *metricsSnap, name string) (count, sum float64) {
	a, b := after.Histograms[name], before.Histograms[name]
	return a.Count - b.Count, a.Sum - b.Sum
}

// heapHeader holds the runtime.MemStats fields the benchmark reads from a
// debug=1 heap profile.
type heapHeader struct {
	HeapAlloc uint64
	NumGC     uint64
}

// parseHeapProfile reads "# HeapAlloc = N" and "# NumGC = N" from the
// MemStats trailer of GET /debug/pprof/heap?debug=1.
func parseHeapProfile(body string) (heapHeader, error) {
	var h heapHeader
	seen := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(body))
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		name, val, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok || !strings.HasPrefix(line, "# ") {
			continue
		}
		var dst *uint64
		switch name {
		case "HeapAlloc":
			dst = &h.HeapAlloc
		case "NumGC":
			dst = &h.NumGC
		default:
			continue
		}
		v, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return h, fmt.Errorf("heap profile %s: %w", name, err)
		}
		*dst = v
		seen[name] = true
	}
	if err := sc.Err(); err != nil {
		return h, fmt.Errorf("heap profile: %w", err)
	}
	if !seen["HeapAlloc"] || !seen["NumGC"] {
		return h, fmt.Errorf("heap profile: MemStats trailer missing HeapAlloc or NumGC")
	}
	return h, nil
}

// procCPUTicks returns utime+stime (clock ticks) from a /proc/<pid>/stat
// line. The command name may contain spaces, so fields count from the last
// ')'.
func procCPUTicks(stat string) (uint64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields", len(f)+2)
	}
	u, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	s, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return u + s, nil
}

// stealTicks returns the host's total steal time (clock ticks) from the
// first line of /proc/stat: time the hypervisor ran something else while a
// vCPU of this guest wanted to run.
func stealTicks(stat string) (uint64, error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("proc stat: no aggregate cpu line with a steal field")
	}
	v, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat steal: %w", err)
	}
	return v, nil
}
