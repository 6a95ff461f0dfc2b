package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"cardnet/internal/checkpoint"
	"cardnet/internal/core"
	"cardnet/internal/dataset"
	"cardnet/internal/dist"
	"cardnet/internal/metrics"
	"cardnet/internal/simselect"
)

// Workload shape. The Zipf pool's keys (pool × (τmax+1) point entries) are
// about three times the server's default 4096-entry cache.
const (
	evalQueries   = 1000 // fixed q-error set, each query swept over every τ
	sweepPool     = 600
	zipfS         = 1.1
	defaultCache  = 4096 // cardnet serve -cache default
	minOps        = 1100 // p99 needs 1000 samples; keep a margin
	opsCap        = 200000
	streamOps     = 12  // update ops available to the refresh rounds
	updateBatch   = 800 // records inserted or deleted per update op
	retrainRounds = 5   // rounds that must retrain before the refresh stops
	refreshEpochs = 1   // IncrementalTrain stops by 4×Epochs epochs
	sweepWarm     = 200 // sweeps run before measuring, to fill the cache
	pointWarm     = 200
	readWarm      = 300
	// readThink paces the update-stream reader like an optimizer that plans
	// between estimates; back-to-back reads would take a core from the
	// refresh rounds and make both sides measure the scheduler.
	readThink = time.Millisecond
)

// workload is one traffic mix against one server configuration.
type workload struct {
	name      string
	precision string
	measure   func(e *env, s *server, lim limits) (*phase, error)
}

var workloads = []workload{
	{name: "point-fresh", precision: "f64", measure: measurePointFresh},
	{name: "sweep-zipf", precision: "f32", measure: measureSweepZipf},
	{name: "update-stream", precision: "f32", measure: measureUpdateStream},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want point-fresh, sweep-zipf or update-stream)", name)
}

// queries partitions the fresh queries: the evaluation set is the same for
// every seed, so q-error moves only with the model; the seed picks the Zipf
// pool and orders the never-repeated point queries.
type queries struct {
	eval, pool, point []dist.BitVector
	evalX, poolX      [][]byte
}

func splitFresh(fresh []dist.BitVector, seed int64) queries {
	rest := fresh[evalQueries:]
	perm := rand.New(rand.NewSource(seed)).Perm(len(rest))
	pick := func(idx []int) []dist.BitVector {
		out := make([]dist.BitVector, len(idx))
		for i, j := range idx {
			out[i] = rest[j]
		}
		return out
	}
	q := queries{
		eval:  fresh[:evalQueries],
		pool:  pick(perm[:sweepPool]),
		point: pick(perm[sweepPool:]),
	}
	for _, v := range q.eval {
		q.evalX = append(q.evalX, encodedX(v))
	}
	for _, v := range q.pool {
		q.poolX = append(q.poolX, encodedX(v))
	}
	return q
}

// env is what a workload needs from the run.
type env struct {
	f     *fixture
	q     queries
	seed  int64
	dir   string
	spans *spanLog
}

func (e *env) clients(s *server, n int) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = newClient(s.base, e.spans)
	}
	return cs
}

func closeAll(cs []*client) {
	for _, c := range cs {
		c.close()
	}
}

// limits bounds a closed-loop phase: it runs at least minDur and minOps
// ops, and until `until` closes (nil: no such wait), but never past maxDur.
// Each caller pauses for think between ops.
type limits struct {
	minDur, maxDur time.Duration
	minOps         int
	until          <-chan struct{}
	think          time.Duration
}

func (l limits) done(el time.Duration, i int) bool {
	if el >= l.maxDur {
		return true
	}
	if el < l.minDur || i < l.minOps {
		return false
	}
	if l.until != nil {
		select {
		case <-l.until:
		default:
			return false
		}
	}
	return true
}

// phase is the outcome of one measured phase.
type phase struct {
	t       *tally
	wall    time.Duration
	rounds  []roundTiming
	records []dist.BitVector // dataset after the phase's updates (nil: unchanged)
}

// warmThenMeasure runs ops [0, warm) unmeasured, then the rest measured.
// Warm-up failures still count as attempted and failed ops.
func warmThenMeasure(cs []*client, nOps, warm int, lim limits, fn opFunc) (*tally, time.Duration) {
	wt, _ := closedLoop(cs, warm, limits{minOps: warm, maxDur: lim.maxDur}, fn)
	t, wall := closedLoop(cs, nOps-warm, lim, func(c *client, i int) (int, float64, error) {
		return fn(c, i+warm)
	})
	t.merge(wt)
	return t, wall
}

// answerBook remembers the first answer to each (model version, query, τ)
// and flags any later answer that differs in a single bit, whether it came
// from the cache or a fresh forward pass.
type answerBook struct {
	mu sync.Mutex
	m  map[[3]int]float64
}

func newAnswerBook() *answerBook { return &answerBook{m: map[[3]int]float64{}} }

func (b *answerBook) check(version, q, tau int, v float64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	k := [3]int{version, q, tau}
	if old, ok := b.m[k]; ok {
		if math.Float64bits(old) != math.Float64bits(v) {
			return errViolation{fmt.Sprintf("query %d tau %d answered %v, earlier %v", q, tau, v, old)}
		}
		return nil
	}
	b.m[k] = v
	return nil
}

// measurePointFresh: two callers, each op one /estimate for a query the
// server has never seen, at a seeded τ.
func measurePointFresh(e *env, s *server, lim limits) (*phase, error) {
	ops := pointOps(len(e.q.point), fixtureTauMax, e.seed+11)
	cs := e.clients(s, 2)
	defer closeAll(cs)
	t, wall := warmThenMeasure(cs, len(ops), pointWarm, lim, func(c *client, i int) (int, float64, error) {
		o := ops[i]
		_, lat, err := c.estimate(encodedX(e.q.point[o.Query]), o.Tau)
		return 1, ms(lat), err
	})
	return &phase{t: t, wall: wall}, nil
}

// measureSweepZipf: two callers, each op one pool query's full τ-sweep as
// point requests τ = 0..τmax, queries drawn Zipf from the pool.
func measureSweepZipf(e *env, s *server, lim limits) (*phase, error) {
	ranks := zipfQueries(opsCap, sweepPool, zipfS, e.seed+21)
	book := newAnswerBook()
	cs := e.clients(s, 2)
	defer closeAll(cs)
	t, wall := warmThenMeasure(cs, len(ranks), sweepWarm, lim, func(c *client, i int) (int, float64, error) {
		q := ranks[i]
		var reqMs float64
		prev := 0.0
		for tau := 0; tau <= fixtureTauMax; tau++ {
			v, lat, err := c.estimate(e.q.poolX[q], tau)
			reqMs += ms(lat)
			if err != nil {
				return tau + 1, reqMs, err
			}
			if v < prev {
				return tau + 1, reqMs, errViolation{fmt.Sprintf("sweep of query %d decreases at tau %d: %v < %v", q, tau, v, prev)}
			}
			if err := book.check(0, q, tau, v); err != nil {
				return tau + 1, reqMs, err
			}
			prev = v
		}
		return fixtureTauMax + 1, reqMs, nil
	})
	return &phase{t: t, wall: wall}, nil
}

// measureUpdateStream: one caller does Zipf point reads, each query at its
// own τ and readThink apart, while the benchmark
// applies refresh rounds back to back until retrainRounds of them retrained;
// the phase lasts until both the rounds and the minimum duration are done.
func measureUpdateStream(e *env, s *server, lim limits) (*phase, error) {
	ops := zipfOps(opsCap, sweepPool, fixtureTauMax, zipfS, e.seed+31)
	u, err := newUpdater(e)
	if err != nil {
		return nil, err
	}
	book := newAnswerBook()
	cs := e.clients(s, 1)
	defer closeAll(cs)

	// A read is checked against the answer book only when no reload
	// overlapped it, so it is known which model version answered.
	read := func(c *client, i int) (int, float64, error) {
		o := ops[i]
		v0, s0 := u.finished.Load(), u.started.Load()
		v, lat, err := c.estimate(e.q.poolX[o.Query], o.Tau)
		if err != nil {
			return 1, ms(lat), err
		}
		if v0 == s0 && u.started.Load() == s0 {
			if err := book.check(int(v0), o.Query, o.Tau, v); err != nil {
				return 1, ms(lat), err
			}
		}
		return 1, ms(lat), nil
	}
	lim.think = readThink
	wt, _ := closedLoop(cs, readWarm, limits{minOps: readWarm, maxDur: lim.maxDur, think: readThink}, read)

	done := make(chan struct{})
	var rounds []roundTiming
	var roundErr error
	go func() {
		defer close(done)
		rounds, roundErr = u.refresh(s, retrainRounds)
	}()
	lim.until = done
	t, wall := closedLoop(cs, len(ops)-readWarm, lim, func(c *client, i int) (int, float64, error) {
		return read(c, i+readWarm)
	})
	<-done
	t.merge(wt)
	if roundErr != nil {
		return nil, roundErr
	}
	return &phase{t: t, wall: wall, rounds: rounds, records: u.records()}, nil
}

// roundTiming is one refresh round, from applying the update to the reload
// returning.
type roundTiming struct {
	total, relabel, train, save, reload time.Duration
	epochs                              int
	skipped                             bool
}

// updater applies the fixture's dataset.UpdateStream, seeded like the rest
// of the fixture so every workload seed ends on the same model, in refresh
// rounds to a copy of the fixture model: relabel with simselect, IncrementalTrain (Section 8
// rule, the previous round's valid MSLE as the bar), SaveModel, and
// POST /admin/reload.
type updater struct {
	e         *env
	model     *core.Model
	stream    []dataset.UpdateOp
	next      int
	deleted   map[int]bool
	inserted  []dist.BitVector
	prevValid float64
	hc        *http.Client
	lastPath  string

	// Reloads begun and finished, so concurrent readers can tell which
	// model version answered them.
	started, finished atomic.Int64
}

func newUpdater(e *env) (*updater, error) {
	m, err := checkpoint.LoadModel(e.f.modelPath)
	if err != nil {
		return nil, fmt.Errorf("load fixture model: %w", err)
	}
	m.Cfg.Epochs = refreshEpochs
	m.Cfg.Workers = 1
	return &updater{
		e:         e,
		model:     m,
		stream:    dataset.UpdateStream(fixtureN, insertPoolN, streamOps, updateBatch, e.f.spec.Seed),
		deleted:   map[int]bool{},
		prevValid: e.f.validMSLE,
		hc:        &http.Client{Timeout: 60 * time.Second},
	}, nil
}

// records is the live dataset after the updates applied so far.
func (u *updater) records() []dist.BitVector {
	base := u.e.f.records
	out := make([]dist.BitVector, 0, len(base)+len(u.inserted))
	for i, r := range base {
		if !u.deleted[i] {
			out = append(out, r)
		}
	}
	return append(out, u.inserted...)
}

func (u *updater) round(s *server) (roundTiming, error) {
	var rt roundTiming
	if u.next >= len(u.stream) {
		return rt, fmt.Errorf("update stream exhausted after %d rounds", u.next)
	}
	op := u.stream[u.next]
	u.next++
	start := time.Now()
	if op.Insert {
		for _, id := range op.IDs {
			if id >= len(u.e.f.pool) {
				return rt, fmt.Errorf("update stream ran past the %d-record insert pool", len(u.e.f.pool))
			}
			u.inserted = append(u.inserted, u.e.f.pool[id])
		}
	} else {
		for _, id := range op.IDs {
			u.deleted[id] = true
		}
	}
	recs := u.records()

	t := time.Now()
	train, valid, err := u.e.f.label(recs)
	if err != nil {
		return rt, err
	}
	rt.relabel = time.Since(t)
	u.e.spans.addChild("simselect.relabel", "update.round", t, rt.relabel)

	t = time.Now()
	res := u.model.IncrementalTrain(train, valid, u.prevValid)
	rt.train = time.Since(t)
	u.e.spans.addChild("core.IncrementalTrain", "update.round", t, rt.train)
	u.prevValid = res.ValidMSLE
	rt.epochs, rt.skipped = res.Epochs, res.Skipped

	path := filepath.Join(u.e.dir, fmt.Sprintf("round-%d.gob", u.next))
	t = time.Now()
	if err := checkpoint.SaveModel(path, u.model); err != nil {
		return rt, fmt.Errorf("save round model: %w", err)
	}
	rt.save = time.Since(t)
	u.e.spans.addChild("checkpoint.SaveModel", "update.round", t, rt.save)

	t = time.Now()
	if err := s.reload(u.hc, path); err != nil {
		return rt, err
	}
	rt.reload = time.Since(t)
	u.e.spans.addChild("http.reload", "update.round", t, rt.reload)
	rt.total = time.Since(start)
	u.e.spans.add("update.round", start, rt.total)

	if u.lastPath != "" {
		os.Remove(u.lastPath) // the server has moved on to the new file
	}
	u.lastPath = path
	return rt, nil
}

// refresh applies update ops one round each until n rounds have retrained
// (the others were skipped by the Section 8 rule).
func (u *updater) refresh(s *server, n int) ([]roundTiming, error) {
	var out []roundTiming
	for trained := 0; trained < n; {
		u.started.Add(1)
		rt, err := u.round(s)
		u.finished.Add(1)
		if err != nil {
			return out, err
		}
		out = append(out, rt)
		if !rt.skipped {
			trained++
		}
	}
	return out, nil
}

// refresh runs refresh rounds, with no concurrent reads, until n retrained.
func refresh(e *env, s *server, n int) ([]roundTiming, error) {
	u, err := newUpdater(e)
	if err != nil {
		return nil, err
	}
	return u.refresh(s, n)
}

// evaluate reads the fixed evaluation set's τ-sweeps through the server
// twice with two callers. The first pass runs forward passes (the queries
// are new to the server), the second is answered from the cache and must
// match bit for bit. It returns the q-errors of every (query, τ) of the
// first pass against the exact oracle over recs.
func evaluate(e *env, s *server, recs []dist.BitVector) ([]float64, *tally) {
	n := len(e.q.eval)
	curves := make([][]float64, n)
	cs := e.clients(s, 2)
	defer closeAll(cs)
	lim := limits{minOps: n, maxDur: 2 * time.Minute}
	t, _ := closedLoop(cs, n, lim, func(c *client, i int) (int, float64, error) {
		curve, lat, err := c.estimateAll(e.q.evalX[i])
		curves[i] = curve
		return 1, ms(lat), err
	})
	t2, _ := closedLoop(cs, n, lim, func(c *client, i int) (int, float64, error) {
		curve, lat, err := c.estimateAll(e.q.evalX[i])
		if err == nil && !sameBits(curve, curves[i]) {
			err = errViolation{fmt.Sprintf("eval query %d: cached sweep %v, computed %v", i, curve, curves[i])}
		}
		return 1, ms(lat), err
	})
	t.merge(t2)
	ix := simselect.NewHammingIndex(recs)
	var qerrs []float64
	for i, q := range e.q.eval {
		if curves[i] == nil {
			continue // failed, and counted as such
		}
		truth := ix.CountAtEach(q, fixtureTauMax)
		for tau, v := range curves[i] {
			qerrs = append(qerrs, metrics.QError(float64(truth[tau]), v))
		}
	}
	return qerrs, t
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
