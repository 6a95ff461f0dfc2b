package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"cardnet/internal/checkpoint"
	"cardnet/internal/infer"
	"cardnet/internal/tensor"
)

// gateSeed is the accuracy-gate seed `cardnet serve` uses by default
// (its -seed flag), so the probed Compile repeats the server's.
const gateSeed = 7

// timeMedian calls fn n times and returns the median duration.
func timeMedian(n int, fn func()) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		t := time.Now()
		fn()
		ds[i] = float64(time.Since(t).Nanoseconds())
	}
	return time.Duration(median(ds))
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// probeLayers times calls into each module's public functions on the
// fixture model and queries, and adds the per-layer metrics to out.
func probeLayers(e *env, out map[string]metric) error {
	m, err := checkpoint.LoadModel(e.f.modelPath)
	if err != nil {
		return fmt.Errorf("load fixture model: %w", err)
	}
	rows := func(b int) *tensor.Matrix {
		xs := tensor.NewMatrix(b, m.InDim)
		for i := 0; i < b; i++ {
			copy(xs.Row(i), e.q.eval[i].Floats())
		}
		return xs
	}
	x1, x2 := rows(1), rows(2)

	// core: the unlowered f64 forward the f64 tier serves.
	out["core.forward_b1_us"] = metric{us(timeMedian(300, func() { m.EstimateAllTausBatch(x1) })), "us"}
	out["core.forward_b2_us"] = metric{us(timeMedian(300, func() { m.EstimateAllTausBatch(x2) })), "us"}

	// infer: Compile with its accuracy gate, then the f32 plan forward.
	var plan *infer.Plan
	var gate infer.GateResult
	compile := timeMedian(3, func() {
		plan, gate, err = infer.Compile(m, infer.PrecisionF32, infer.GateConfig{Seed: gateSeed})
	})
	if err != nil {
		return fmt.Errorf("compile f32 plan: %w", err)
	}
	if plan == nil {
		return fmt.Errorf("f32 gate refused the fixture model: %s", gate.Reason)
	}
	out["infer.compile_ms"] = metric{ms(compile), "ms"}
	out["infer.gate_qerr_delta"] = metric{gate.QErrP99Delta, "ratio"}
	out["infer.forward_b1_us"] = metric{us(timeMedian(500, func() { plan.EstimateAllTausBatch(x1) })), "us"}
	out["infer.forward_b2_us"] = metric{us(timeMedian(500, func() { plan.EstimateAllTausBatch(x2) })), "us"}

	// tensor: the ABT kernels at 2×512·512ᵀ and the training ATB-add at
	// batch 32. Bytes moved are computed from the shapes, not measured.
	rng := rand.New(rand.NewSource(e.seed))
	fill := func(r, c int) *tensor.Matrix {
		mat := tensor.NewMatrix(r, c)
		tensor.RandUniform(rng, mat.Data, -1, 1)
		return mat
	}
	a, b := fill(2, 512), fill(512, 512)
	o := tensor.NewMatrix(2, 512)
	abtFlops := 2.0 * 2 * 512 * 512
	t := timeMedian(400, func() { tensor.PMatMulABT(a, b, o) })
	out["tensor.abt_f64_gflops"] = metric{abtFlops / float64(t.Nanoseconds()), "GFLOP/s"}
	a32, b32, o32 := tensor.Demote32(a), tensor.Demote32(b), tensor.NewMatrix32(2, 512)
	t = timeMedian(400, func() { tensor.MatMulABT32(a32, b32, o32) })
	out["tensor.abt_f32_gflops"] = metric{abtFlops / float64(t.Nanoseconds()), "GFLOP/s"}
	elems := float64(2*512 + 512*512 + 2*512)
	out["tensor.abt_f64_mb"] = metric{elems * 8 / 1e6, "MB"}
	out["tensor.abt_f32_mb"] = metric{elems * 4 / 1e6, "MB"}
	ga, gb, gout := fill(32, 512), fill(32, 512), tensor.NewMatrix(512, 512)
	t = timeMedian(100, func() { tensor.PMatMulATBAdd(ga, gb, gout) })
	out["tensor.atb_add_f64_gflops"] = metric{2.0 * 32 * 512 * 512 / float64(t.Nanoseconds()), "GFLOP/s"}

	// checkpoint: the model file the server loads at start-up and reload.
	out["checkpoint.load_ms"] = metric{ms(timeMedian(3, func() {
		if _, lerr := checkpoint.LoadModel(e.f.modelPath); lerr != nil {
			err = lerr
		}
	})), "ms"}
	path := filepath.Join(e.dir, "probe.gob")
	out["checkpoint.save_ms"] = metric{ms(timeMedian(3, func() {
		if serr := checkpoint.SaveModel(path, m); serr != nil {
			err = serr
		}
	})), "ms"}
	if err != nil {
		return fmt.Errorf("checkpoint probe: %w", err)
	}
	runtime.GC()
	return nil
}

// roundMetrics summarizes refresh rounds as per-layer metrics.
func roundMetrics(rounds []roundTiming, out map[string]metric) {
	var relabel, reload, trained []float64
	var epochs int
	var trainSecs float64
	for _, r := range rounds {
		relabel = append(relabel, ms(r.relabel))
		reload = append(reload, ms(r.reload))
		if !r.skipped {
			trained = append(trained, r.train.Seconds())
			trainSecs += r.train.Seconds()
			epochs += r.epochs
		}
	}
	out["simselect.relabel_ms"] = metric{median(relabel), "ms"}
	out["http.reload_ms"] = metric{median(reload), "ms"}
	out["core.incremental_epochs"] = metric{float64(epochs), "count"}
	if epochs > 0 {
		out["core.incremental_s"] = metric{median(trained), "s"}
		out["core.epoch_ms"] = metric{trainSecs * 1e3 / float64(epochs), "ms"}
	}
}

// updateSeconds is update_s: the median time of the rounds that retrained.
// Skipped rounds (tens of milliseconds against seconds) are left out, since
// how many rounds skip depends on the seed.
func updateSeconds(rounds []roundTiming) float64 {
	var ts []float64
	for _, r := range rounds {
		if !r.skipped {
			ts = append(ts, r.total.Seconds())
		}
	}
	return median(ts)
}
