package serving

import (
	"cardnet/internal/infer"
)

// planState is one atomically-published compiled-plan snapshot: the plan (nil
// when the f64 legacy path serves), the registry version it was lowered from,
// and the gate verdict that authorized (or refused) it. Batches use the plan
// only when its version matches the model they snapshotted, so the window
// between a swap and its re-lowering serves through the exact f64 path rather
// than a stale plan.
type planState struct {
	plan    *infer.Plan
	version uint64
	gate    infer.GateResult
}

// precisionBits maps a tier to the gauge encoding of
// "serving.precision.active_bits": the weight width actually serving
// (64 or 32).
func precisionBits(p infer.Precision) float64 {
	if p == infer.PrecisionF32 {
		return 32
	}
	return 64
}

// relower compiles the current registry model to the configured precision
// tier and publishes the result. It runs at engine construction and after
// every registry swap (never on the request path); a gate failure publishes a
// nil plan — the f64 fallback — and bumps the gate-failure counter.
func (e *Engine) relower() {
	m, ver := e.reg.Current()
	plan, gate, err := infer.Compile(m, e.cfg.Precision, infer.GateConfig{
		MaxQErrP99Delta: e.cfg.GateMaxDelta,
		Sweep:           e.cfg.GateSweep,
		Seed:            e.cfg.GateSeed,
	})
	if err != nil {
		// Unknown tier: withDefaults normalizes the config, so this is
		// defensive. Serve exact f64 and say why.
		gate.Reason = err.Error()
		plan = nil
	}
	if e.cfg.Precision != infer.PrecisionF64 && !gate.Pass {
		mGateFailures.Inc()
	}
	e.plan.Store(&planState{plan: plan, version: ver, gate: gate})
	mPrecisionActive.Set(precisionBits(gate.Tier))
}

// Precision reports the gate verdict of the currently published plan: which
// tier was requested, which tier is actually serving, and the measured
// q-error delta. Exposed through /healthz.
func (e *Engine) Precision() infer.GateResult {
	if ps := e.plan.Load(); ps != nil {
		return ps.gate
	}
	return infer.GateResult{
		Requested: e.cfg.Precision,
		Tier:      infer.PrecisionF64,
		Pass:      true,
		Reason:    "engine not yet lowered",
	}
}
