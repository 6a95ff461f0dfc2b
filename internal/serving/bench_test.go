package serving

import (
	"bytes"
	"context"
	"encoding/gob"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"cardnet/internal/checkpoint"
	"cardnet/internal/core"
	"cardnet/internal/feature"
	"cardnet/internal/infer"
	"cardnet/internal/nn"
	"cardnet/internal/tensor"
)

// benchModel mirrors the production architecture at production size; serving
// throughput does not depend on trained weights.
func benchModel() *core.Model {
	cfg := core.DefaultConfig(16)
	cfg.Accel = true
	return core.New(cfg, 48)
}

// benchPlan compiles benchModel to the default f64 plan the engine serves.
func benchPlan(b *testing.B) (*core.Model, *infer.Plan) {
	m := benchModel()
	p, err := infer.Lower(m, infer.PrecisionF64)
	if err != nil {
		b.Fatal(err)
	}
	return m, p
}

// BenchmarkEstimatePerRequest is the baseline the batcher must beat: one
// forward pass per estimate.
func BenchmarkEstimatePerRequest(b *testing.B) {
	m, p := benchPlan(b)
	x := binVec(1, m.InDim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.EstimateAllTaus(x)
	}
}

// BenchmarkEstimateBatched measures the coalesced forward pass at the batch
// sizes the engine actually forms; b.N counts estimates, not batches, so the
// numbers are directly comparable to BenchmarkEstimatePerRequest.
func BenchmarkEstimateBatched(b *testing.B) {
	for _, size := range []int{8, 16, 32} {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			m, p := benchPlan(b)
			xs := tensor.NewMatrix(size, m.InDim)
			for r := 0; r < size; r++ {
				copy(xs.Row(r), binVec(int64(r), m.InDim))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += size {
				p.EstimateAllTausBatch(xs)
			}
		})
	}
}

// BenchmarkEngineEstimate drives the full path — queue, batcher, cache — with
// parallel clients over a repeating query set.
func BenchmarkEngineEstimate(b *testing.B) {
	for _, tc := range []struct {
		name    string
		entries int
	}{{"cache_off", -1}, {"cache_on", 4096}} {
		b.Run(tc.name, func(b *testing.B) {
			m := benchModel()
			e := NewEngine(testRegistry(b, m), Config{
				MaxBatch:     32,
				QueueDepth:   4096,
				CacheEntries: tc.entries,
			})
			defer e.Close()
			const nq = 64
			xs := make([][]float64, nq)
			for i := range xs {
				xs[i] = binVec(int64(i), m.InDim)
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					q := i % nq
					if _, err := e.Estimate(context.Background(), xs[q], q%(m.Cfg.TauMax+1), nil); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
		})
	}
}

// legacyModel mirrors the gob layout of a version-1 model frame (gob matches
// fields by name).
type legacyModel struct {
	Cfg    core.Config
	InDim  int
	TauTop int
	Snap   *nn.Snapshot
}

// BenchmarkColdStart times what serve start-up and /admin/reload do with a
// model file before they publish it: checkpoint.LoadModel, then NewRegistry
// (the plan compile, the f32 gate sweep, the size measurement), at each
// tier, with the tensor pool at one worker and at GOMAXPROCS, on a saved CardNet-A PaperConfig(20, 16) model of the benchmark
// fixture's shape (HM-ImageNet's 64 bits at θmax = τmax = 20). load times
// checkpoint.LoadModel alone, load-legacy the same on the model written as
// a version-1 gob frame, as earlier builds wrote it, save
// checkpoint.SaveModel, and param-bytes the size measurement,
// nn.ParamBytes, alone.
func BenchmarkColdStart(b *testing.B) {
	cfg := core.PaperConfig(20, 16)
	cfg.Accel = true
	m := core.New(cfg, feature.NewHammingExtractor(64, 20, 20).Dim())
	dir := b.TempDir()
	path := filepath.Join(dir, "model.gob")
	if err := checkpoint.SaveModel(path, m); err != nil {
		b.Fatal(err)
	}
	legacyPath := filepath.Join(dir, "legacy.gob")
	var legacy bytes.Buffer
	st := legacyModel{Cfg: m.Cfg, InDim: m.InDim, TauTop: m.TauTop, Snap: nn.TakeSnapshot(m.Params())}
	if err := gob.NewEncoder(&legacy).Encode(&st); err != nil {
		b.Fatal(err)
	}
	if err := checkpoint.WriteFileAtomic(legacyPath, checkpoint.KindModel, legacy.Bytes()); err != nil {
		b.Fatal(err)
	}
	workers := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workers = append(workers, n)
	}
	for _, tier := range []infer.Precision{infer.PrecisionF64, infer.PrecisionF32} {
		for _, w := range workers {
			b.Run(string(tier)+"/workers="+strconv.Itoa(w), func(b *testing.B) {
				defer tensor.SetWorkers(tensor.SetWorkers(w))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m, err := checkpoint.LoadModel(path)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := NewRegistry(m, PlanConfig{Precision: tier}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	for _, c := range []struct{ name, path string }{{"load", path}, {"load-legacy", legacyPath}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := checkpoint.LoadModel(c.path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("save", func(b *testing.B) {
		b.ReportAllocs()
		out := filepath.Join(dir, "saved.gob")
		for i := 0; i < b.N; i++ {
			if err := checkpoint.SaveModel(out, m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("param-bytes", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			nn.ParamBytes(m.Params())
		}
	})
}
