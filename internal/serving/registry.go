package serving

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cardnet/internal/core"
	"cardnet/internal/infer"
)

// PlanConfig selects the inference plan the registry compiles every model
// to before publishing it.
type PlanConfig struct {
	// Precision selects the tier: "f64" (default) serves the fused float64
	// plan; "f32" serves the float32 plan, but only after the accuracy-delta
	// gate passes. A failed gate serves the f64 plan (see Snapshot.Gate for
	// the verdict).
	Precision infer.Precision
	// Gate parameterizes the f32 accuracy gate (zero fields take the infer
	// package defaults).
	Gate infer.GateConfig
}

// Snapshot is one published serving state: a frozen model, the plan compiled
// from it, the gate verdict that chose the plan's tier, and the registry
// version (1 for the initial model, incremented on every successful Swap).
// Snapshots are immutable; a batch loads one and answers from its plan.
type Snapshot struct {
	Model *core.Model
	Plan  *infer.Plan
	Gate  infer.GateResult
	// ModelBytes is Model.SizeBytes, the encoded parameter size, measured
	// once when the snapshot is compiled: encoding every weight costs tens
	// of milliseconds, too much for each /healthz probe.
	ModelBytes int
	Version    uint64
}

// Registry is a versioned store for the live serving state. Readers get the
// current Snapshot with one atomic load; Swap compiles a retrained model and
// installs it atomically after validating shape compatibility, so in-flight
// batches simply finish on the snapshot they already hold — no request ever
// fails because of a reload (the paper's Section 8 incremental-learning loop
// deployed as an operation).
//
// A published model must never be trained again: the f64 plan reads the
// model's weights in place. Retrain a copy and Swap it in.
type Registry struct {
	cur atomic.Pointer[Snapshot]
	pc  PlanConfig

	mu     sync.Mutex // serializes Publish and onSwap registration
	onSwap []func()
}

// NewRegistry compiles m per pc and publishes it as version 1. It fails when
// the model cannot be compiled (an unknown tier, or a NaN or infinite
// weight).
func NewRegistry(m *core.Model, pc PlanConfig) (*Registry, error) {
	if pc.Precision == "" {
		pc.Precision = infer.PrecisionF64
	}
	r := &Registry{pc: pc}
	s, err := r.compile(m)
	if err != nil {
		return nil, err
	}
	s.Version = 1
	r.publish(s)
	return r, nil
}

// Current returns the live snapshot.
func (r *Registry) Current() *Snapshot { return r.cur.Load() }

// OnSwap registers a callback invoked after every successful Swap (the
// engine uses it to invalidate the estimate cache).
func (r *Registry) OnSwap(f func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onSwap = append(r.onSwap, f)
}

// Prepare validates that m is shape-compatible with the live model — same
// input dimensionality and τ range, the contract clients encode against —
// and compiles it into an unpublished snapshot. Every published version
// shares that shape, so a prepared snapshot stays publishable.
func (r *Registry) Prepare(m *core.Model) (*Snapshot, error) {
	if m == nil {
		return nil, fmt.Errorf("%w: nil model", ErrBadInput)
	}
	cur := r.Current().Model
	if m.InDim != cur.InDim {
		return nil, fmt.Errorf("%w: model in_dim %d, serving %d", ErrBadInput, m.InDim, cur.InDim)
	}
	if m.Cfg.TauMax != cur.Cfg.TauMax {
		return nil, fmt.Errorf("%w: model tau_max %d, serving %d", ErrBadInput, m.Cfg.TauMax, cur.Cfg.TauMax)
	}
	return r.compile(m)
}

// Publish installs a prepared snapshot as the next version and returns it.
// The replaced snapshot keeps serving any batch that already loaded it.
func (r *Registry) Publish(s *Snapshot) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	next := *s
	next.Version = r.Current().Version + 1
	r.publish(&next)
	mSwaps.Inc()
	for _, f := range r.onSwap {
		f()
	}
	return next.Version
}

// Swap prepares and publishes m, returning the new version.
func (r *Registry) Swap(m *core.Model) (uint64, error) {
	s, err := r.Prepare(m)
	if err != nil {
		return 0, err
	}
	return r.Publish(s), nil
}

// compile builds m's plan at the configured tier.
func (r *Registry) compile(m *core.Model) (*Snapshot, error) {
	plan, gate, err := infer.Compile(m, r.pc.Precision, r.pc.Gate)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadInput, err)
	}
	return &Snapshot{Model: m, Plan: plan, Gate: gate, ModelBytes: m.SizeBytes()}, nil
}

// publish stores s and updates the registry gauges.
func (r *Registry) publish(s *Snapshot) {
	r.cur.Store(s)
	mVersion.Set(float64(s.Version))
	bits := 64.0
	if s.Plan.Tier() == infer.PrecisionF32 {
		bits = 32
	}
	mPrecisionActive.Set(bits)
	if r.pc.Precision != infer.PrecisionF64 && !s.Gate.Pass {
		mGateFailures.Inc()
	}
}
