package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"cardnet/internal/tensor"
)

// randomBinaryBatch builds a B×dim matrix of random {0,1} rows.
func randomBinaryBatch(seed int64, b, dim int) *tensor.Matrix {
	rng := rand.New(rand.NewSource(seed))
	xs := tensor.NewMatrix(b, dim)
	for i := range xs.Data {
		xs.Data[i] = float64(rng.Intn(2))
	}
	return xs
}

// estimateRow is one query's curve through the nn forward: a one-row
// EstimateAllTausBatch.
func estimateRow(m *Model, x []float64) []float64 {
	return m.EstimateAllTausBatch(&tensor.Matrix{Rows: 1, Cols: len(x), Data: x}).Row(0)
}

// The batched path must be bit-identical to the per-sample path: every row
// of EstimateAllTausBatch equals that row run alone.
func TestBatchedEstimatesBitIdentical(t *testing.T) {
	for _, accel := range []bool{false, true} {
		m := New(tinyConfig(7, accel), 20)
		const b = 13
		xs := randomBinaryBatch(11, b, m.InDim)

		all := m.EstimateAllTausBatch(xs)
		if all.Rows != b || all.Cols != m.Cfg.TauMax+1 {
			t.Fatalf("accel=%v: batch all-taus shape %d×%d", accel, all.Rows, all.Cols)
		}
		for e := 0; e < b; e++ {
			want := estimateRow(m, xs.Row(e))
			for i, v := range want {
				if all.At(e, i) != v {
					t.Fatalf("accel=%v: row %d τ=%d batched %v != per-sample %v", accel, e, i, all.At(e, i), v)
				}
			}
		}
	}
}

func TestBatchedEstimateShapePanics(t *testing.T) {
	m := New(tinyConfig(4, false), 8)
	assertPanics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	assertPanics("wrong dim", func() { m.EstimateAllTausBatch(tensor.NewMatrix(2, 5)) })
}

// Concurrent inference on one shared model must be race-free and return the
// same values as serial inference. Run with -race (make ci does) to lock in
// the guarantee that the inference forward pass writes no shared state.
func TestEstimateConcurrentMatchesSerial(t *testing.T) {
	for _, accel := range []bool{false, true} {
		m := New(tinyConfig(6, accel), 24)
		const nq = 64
		xs := randomBinaryBatch(29, nq, m.InDim)

		wantAll := make([][]float64, nq)
		for e := 0; e < nq; e++ {
			wantAll[e] = estimateRow(m, xs.Row(e))
		}

		workers := runtime.GOMAXPROCS(0) * 2
		if workers < 4 {
			workers = 4
		}
		var wg sync.WaitGroup
		errs := make(chan string, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for rep := 0; rep < 20; rep++ {
					e := (w*31 + rep*7) % nq
					got := estimateRow(m, xs.Row(e))
					for i, v := range wantAll[e] {
						if got[i] != v {
							errs <- "single-row forward diverged under concurrency"
							return
						}
					}
					if rep%5 == 0 {
						sub := tensor.NewMatrix(4, m.InDim)
						for r := 0; r < 4; r++ {
							copy(sub.Row(r), xs.Row((e+r)%nq))
						}
						batch := m.EstimateAllTausBatch(sub)
						for r := 0; r < 4; r++ {
							for i, v := range wantAll[(e+r)%nq] {
								if batch.At(r, i) != v {
									errs <- "EstimateAllTausBatch diverged under concurrency"
									return
								}
							}
						}
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for msg := range errs {
			t.Fatalf("accel=%v: %s", accel, msg)
		}
	}
}
