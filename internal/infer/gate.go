package infer

import (
	"fmt"
	"math/rand"
	"sort"

	"cardnet/internal/core"
	"cardnet/internal/tensor"
)

// Default gate parameters, used when GateConfig fields are zero.
const (
	// DefaultGateMaxDelta bounds the allowed q-error p99 inflation of the f32
	// tier versus the f64 plan: the tier is eligible only if
	// p99(q-error vs the f64 plan) − 1 stays within this bound over the sweep.
	DefaultGateMaxDelta = 0.1
	// DefaultGateSweep is the number of pseudo-random validation queries the
	// gate evaluates.
	DefaultGateSweep = 256
)

// GateConfig parameterizes the accuracy-delta gate Compile runs before a
// compiled tier may serve: the f32 plan versus the f64 plan, over a seeded
// sweep that runs on the tensor pool.
type GateConfig struct {
	// MaxQErrP99Delta is the bound on p99 q-error minus one versus the
	// f64 plan (0 selects DefaultGateMaxDelta).
	MaxQErrP99Delta float64
	// Sweep is the number of validation queries (0 selects DefaultGateSweep).
	Sweep int
	// Seed seeds the pseudo-random sweep so gate decisions are reproducible
	// across restarts and between replicas.
	Seed int64
}

// WithDefaults returns the config with zero fields replaced by the package
// defaults, so callers recording gate parameters see the effective values.
func (gc GateConfig) WithDefaults() GateConfig {
	if gc.MaxQErrP99Delta == 0 {
		gc.MaxQErrP99Delta = DefaultGateMaxDelta
	}
	if gc.Sweep == 0 {
		gc.Sweep = DefaultGateSweep
	}
	return gc
}

// GateResult records the gate's verdict for one compiled tier. It is
// serialized into bench reports and the serving /healthz payload, so every
// field is exported.
type GateResult struct {
	// Requested is the tier compilation was asked for.
	Requested Precision `json:"requested"`
	// Tier is the tier that will actually serve: Requested when the gate
	// passed, PrecisionF64 when it failed (or when f64 was requested).
	Tier Precision `json:"tier"`
	// Pass reports whether the requested tier is eligible to serve.
	Pass bool `json:"pass"`
	// QErrP99Delta is the measured p99 q-error minus one versus the f64
	// plan over the sweep (zero for the f64 tier itself). The sweeps run on
	// the tensor pool, and rows of a plan forward are independent, so the
	// value is the same at any worker count.
	QErrP99Delta float64 `json:"q_err_p99_delta"`
	// MaxQErrP99Delta echoes the bound the measurement was judged against.
	MaxQErrP99Delta float64 `json:"max_q_err_p99_delta"`
	// MonoViolations counts sweep curves violating Lemma 2 monotonicity
	// (core.CurveMonotone); any nonzero count fails the gate.
	MonoViolations int `json:"mono_violations"`
	// Sweep is the number of validation queries evaluated.
	Sweep int `json:"sweep"`
	// Reason explains the verdict in one line.
	Reason string `json:"reason"`
}

// qErrP99 returns the 99th-percentile q-error between two equal-shape
// estimate matrices, with +1 smoothing so zero estimates stay comparable:
// q = max((a+1)/(b+1), (b+1)/(a+1)) ≥ 1.
func qErrP99(got, want *tensor.Matrix) float64 {
	qs := make([]float64, len(got.Data))
	for i, g := range got.Data {
		w := want.Data[i]
		q := (g + 1) / (w + 1)
		if q < 1 {
			q = 1 / q
		}
		qs[i] = q
	}
	sort.Float64s(qs)
	idx := int(0.99*float64(len(qs))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(qs) {
		idx = len(qs) - 1
	}
	return qs[idx]
}

// sweepInputs returns the gate's seeded pseudo-random binary query sweep.
func sweepInputs(sweep, inDim int, seed int64) *tensor.Matrix {
	rng := rand.New(rand.NewSource(seed))
	xs := tensor.NewMatrix(sweep, inDim)
	for i := range xs.Data {
		if rng.Intn(2) == 1 {
			xs.Data[i] = 1
		}
	}
	return xs
}

// violations counts the rows of a curve matrix that fail core.CurveMonotone.
func violations(curves *tensor.Matrix) int {
	n := 0
	for r := 0; r < curves.Rows; r++ {
		if !core.CurveMonotone(curves.Row(r)) {
			n++
		}
	}
	return n
}

// sweepMinShardRows is the fewest sweep rows one pool worker takes, so a
// short sweep stays on the calling goroutine.
const sweepMinShardRows = 16

// sweepCurves evaluates the seeded sweep of the given size through each plan
// and returns one curve matrix per plan. Rows are sharded over the tensor
// pool (tensor.ParallelRows), every plan running a shard's rows on the
// shard's worker; a row of a plan forward does not depend on the batch it
// rides in, so the curves are bit-identical at any worker count.
func sweepCurves(sweep int, seed int64, plans ...*Plan) []*tensor.Matrix {
	xs := sweepInputs(sweep, plans[0].inDim, seed)
	curves := make([]*tensor.Matrix, len(plans))
	for i, p := range plans {
		curves[i] = tensor.NewMatrix(sweep, p.tau)
	}
	tensor.ParallelRows(sweep, sweepMinShardRows, func(lo, hi int) {
		for i, p := range plans {
			p.fwd.forwardUnpooled(xs.RowSlice(lo, hi), curves[i].RowSlice(lo, hi))
		}
	})
	return curves
}

// MonoSweep evaluates sweep seeded pseudo-random binary queries through p and
// returns how many of the resulting τ-sweep curves violate Lemma 2
// monotonicity (core.CurveMonotone). The autopilot runs it over the plan a
// retrained candidate would serve before a swap: incremental training
// preserves the architecture's monotone construction, but a verification
// sweep of the serving artifact is what turns that argument into a checked
// invariant (zero violations required to swap). The sweep is Compile's, run
// the same way on the tensor pool, so sweep/seed pairs are comparable across
// both gates.
func MonoSweep(p *Plan, sweep int, seed int64) int {
	if sweep <= 0 {
		sweep = DefaultGateSweep
	}
	return violations(sweepCurves(sweep, seed, p)[0])
}

// Compile lowers m to the requested tier and, for f32, runs the
// accuracy-delta gate. The f32 and f64 plans are built side by side from one
// lowered spec, and a seeded pseudo-random binary query sweep is evaluated
// through both, on the tensor pool. The f32 plan is eligible only if its
// q-error p99 delta versus the f64 plan stays within the bound AND every f32
// curve passes core.CurveMonotone (zero Lemma-2 violations). On a gate
// failure Compile returns that same f64 plan and a GateResult naming f64 as
// the serving tier — the f32 tier never serves estimates the gate has not
// vouched for. The f64 plan needs no gate: fusion only reassociates float64
// sums, so it tracks the model's nn forward to about 1e-14 relative.
// Compile returns a non-nil plan whenever err is nil; err reports an unknown
// tier or a model with a NaN or infinite weight.
func Compile(m *core.Model, tier Precision, gc GateConfig) (*Plan, GateResult, error) {
	gc = gc.WithDefaults()
	res := GateResult{
		Requested:       tier,
		Tier:            PrecisionF64,
		MaxQErrP99Delta: gc.MaxQErrP99Delta,
		Sweep:           gc.Sweep,
	}
	if tier == PrecisionF64 {
		res.Pass = true
		res.Reason = "f64 plan: fusion only reassociates float64 sums; no gate required"
		p, err := Lower(m, PrecisionF64)
		return p, res, err
	}
	lm := m.Lower()
	var p, ref *Plan
	var err, refErr error
	tensor.RunAll(
		func() { p, err = lower(lm, tier) },
		func() { ref, refErr = lower(lm, PrecisionF64) },
	)
	if err == nil {
		err = refErr
	}
	if err != nil {
		return nil, res, err
	}

	c := sweepCurves(gc.Sweep, gc.Seed, p, ref)
	res.QErrP99Delta = qErrP99(c[0], c[1]) - 1
	res.MonoViolations = violations(c[0])

	switch {
	case res.MonoViolations > 0:
		res.Reason = fmt.Sprintf("%d of %d curves violate Lemma 2 monotonicity; falling back to f64", res.MonoViolations, gc.Sweep)
	case res.QErrP99Delta > gc.MaxQErrP99Delta:
		res.Reason = fmt.Sprintf("q-error p99 delta %.3g exceeds bound %.3g; falling back to f64", res.QErrP99Delta, gc.MaxQErrP99Delta)
	default:
		res.Pass = true
		res.Tier = tier
		res.Reason = fmt.Sprintf("q-error p99 delta %.3g within bound %.3g, 0 monotonicity violations", res.QErrP99Delta, gc.MaxQErrP99Delta)
		return p, res, nil
	}
	return ref, res, nil
}
