package autopilot

import (
	"math"
	"sync"
	"sync/atomic"

	"cardnet/internal/infer"
	"cardnet/internal/metrics"
	"cardnet/internal/tensor"
)

// shadowBatch is one sampled live batch handed from the engine's batch worker
// to the shadow evaluator: the encoded inputs and the live model's full
// τ-sweep estimates, both copied off the worker's buffers.
type shadowBatch struct {
	xs   *tensor.Matrix
	live *tensor.Matrix
}

// shadowEval dual-runs a sampled fraction of live traffic through a retrained
// candidate's plan and scores both against ground truth. The tap side is the
// engine's hot path, so it does the minimum — counter sampling, two row
// copies, a non-blocking channel send (full channel drops the batch and
// counts it). The expensive work — the candidate's forward pass and the
// oracle labels — happens on the evaluator goroutine. The live model's
// responses are never touched: shadow evaluation observes traffic, it does
// not sit in front of it.
type shadowEval struct {
	cand  *infer.Plan
	label Labeler
	every uint64 // sample 1 in every batches
	min   int

	ch    chan shadowBatch
	done  chan struct{}
	ready chan struct{} // closed when min rows have been scored

	seen      atomic.Uint64
	readyOnce sync.Once
	closeOnce sync.Once
	wg        sync.WaitGroup

	mu         sync.Mutex
	rows       int
	terms      int
	liveLogSum float64 // Σ ln q over every (row, τ) cell
	candLogSum float64
}

func newShadowEval(cand *infer.Plan, label Labeler, rate float64, min int) *shadowEval {
	every := uint64(math.Round(1 / rate))
	if every < 1 {
		every = 1
	}
	ev := &shadowEval{
		cand:  cand,
		label: label,
		every: every,
		min:   min,
		ch:    make(chan shadowBatch, 8),
		done:  make(chan struct{}),
		ready: make(chan struct{}),
	}
	ev.wg.Add(1)
	go ev.loop()
	return ev
}

// tap is installed as the engine's ShadowTap. The matrices belong to the
// batch worker and must not be retained, so a sampled batch is copied before
// crossing the channel.
func (ev *shadowEval) tap(xs, live *tensor.Matrix) {
	if (ev.seen.Add(1)-1)%ev.every != 0 {
		return
	}
	b := shadowBatch{xs: cloneMatrix(xs), live: cloneMatrix(live)}
	select {
	case ev.ch <- b:
		mShadowBatches.Inc()
	case <-ev.done:
	default:
		mShadowDropped.Inc()
	}
}

func cloneMatrix(m *tensor.Matrix) *tensor.Matrix {
	c := tensor.NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// loop scores sampled batches until closed: the candidate's full τ-sweep
// estimates and the ground-truth curve per row, accumulated as sums of log
// q-errors so summary can report geometric means over every (row, τ) cell.
func (ev *shadowEval) loop() {
	defer ev.wg.Done()
	for {
		select {
		case <-ev.done:
			return
		case b := <-ev.ch:
			ev.score(b)
		}
	}
}

func (ev *shadowEval) score(b shadowBatch) {
	tauTop := b.live.Cols - 1
	cand := ev.cand.EstimateAllTausBatch(b.xs)
	for r := 0; r < b.xs.Rows; r++ {
		truth, err := ev.label(b.xs.Row(r), tauTop)
		if err != nil {
			continue // unlabellable row carries no evidence either way
		}
		liveRow, candRow := b.live.Row(r), cand.Row(r)
		var liveSum, candSum float64
		for tau := 0; tau <= tauTop; tau++ {
			liveSum += math.Log(metrics.QError(truth[tau], liveRow[tau]))
			candSum += math.Log(metrics.QError(truth[tau], candRow[tau]))
		}
		ev.mu.Lock()
		ev.rows++
		ev.terms += tauTop + 1
		ev.liveLogSum += liveSum
		ev.candLogSum += candSum
		rows := ev.rows
		ev.mu.Unlock()
		mShadowRows.Inc()
		if rows >= ev.min {
			ev.readyOnce.Do(func() { close(ev.ready) })
		}
	}
}

// summary reports the scored row count and the two q-error geometric means.
func (ev *shadowEval) summary() (rows int, liveGeo, candGeo float64) {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	if ev.terms == 0 {
		return ev.rows, 1, 1
	}
	n := float64(ev.terms)
	return ev.rows, math.Exp(ev.liveLogSum / n), math.Exp(ev.candLogSum / n)
}

// close stops the evaluator goroutine and waits for it.
func (ev *shadowEval) close() {
	ev.closeOnce.Do(func() { close(ev.done) })
	ev.wg.Wait()
}
