package serving

import (
	"context"
	"math"
	"testing"

	"cardnet/internal/infer"
)

// TestEnginePrecisionF32 checks the compiled f32 tier end to end: the gate
// passes, the plan serves, and estimates track the model within float32
// tolerance.
func TestEnginePrecisionF32(t *testing.T) {
	m := testModel(1)
	e := NewEngine(mustRegistry(t, m, PlanConfig{Precision: infer.PrecisionF32}), Config{
		MaxBatch:     4,
		CacheEntries: -1,
	})
	defer e.Close()

	gate := e.Precision()
	if !gate.Pass || gate.Tier != infer.PrecisionF32 {
		t.Fatalf("f32 gate should pass on a healthy model: %+v", gate)
	}
	for i := 0; i < 8; i++ {
		x := binVec(int64(i), m.InDim)
		all, err := e.EstimateAll(context.Background(), x, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := planCurve(t, m, x)
		for j := range want {
			if math.Abs(all[j]-want[j]) > 1e-3*(1+math.Abs(want[j])) {
				t.Fatalf("query %d τ=%d: f32 engine %v, f64 plan %v", i, j, all[j], want[j])
			}
		}
		for j := 1; j < len(all); j++ {
			if all[j] < all[j-1] {
				t.Fatalf("query %d: served curve not monotone at τ=%d", i, j)
			}
		}
	}
}

// TestEngineGateFallback is the acceptance property: when the f32 gate
// fails (a q-error bound tighter than float32 rounding can meet), the engine
// must keep serving — bit-identical to the f64 plan — and report the
// fallback.
func TestEngineGateFallback(t *testing.T) {
	m := testModel(3)
	e := NewEngine(mustRegistry(t, m, PlanConfig{
		Precision: infer.PrecisionF32,
		Gate:      infer.GateConfig{MaxQErrP99Delta: 1e-12},
	}), Config{
		MaxBatch:     4,
		CacheEntries: -1,
	})
	defer e.Close()

	gate := e.Precision()
	if gate.Pass || gate.Tier != infer.PrecisionF64 || gate.Requested != infer.PrecisionF32 {
		t.Fatalf("f32 gate should fail and fall back to f64: %+v", gate)
	}
	if gate.Reason == "" {
		t.Fatal("fallback must carry a reason")
	}
	for i := 0; i < 5; i++ {
		x := binVec(int64(i), m.InDim)
		all, err := e.EstimateAll(context.Background(), x, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := planCurve(t, m, x)
		for j := range want {
			if all[j] != want[j] {
				t.Fatalf("fallback must serve the f64 plan: query %d τ=%d engine %v != plan %v", i, j, all[j], want[j])
			}
		}
	}
}

// TestEngineSwapRelowers checks that a hot swap publishes a freshly compiled
// plan: after Swap the engine serves the new model's estimates, not the old
// plan's.
func TestEngineSwapRelowers(t *testing.T) {
	m1, m2 := testModel(1), testModel(2)
	reg := mustRegistry(t, m1, PlanConfig{Precision: infer.PrecisionF32})
	e := NewEngine(reg, Config{
		MaxBatch: 4,
	})
	defer e.Close()

	x := binVec(99, m1.InDim)
	before, err := e.EstimateAll(context.Background(), x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Swap(m2); err != nil {
		t.Fatal(err)
	}
	gate := e.Precision()
	if !gate.Pass || gate.Tier != infer.PrecisionF32 {
		t.Fatalf("gate should pass after swap: %+v", gate)
	}
	after, err := e.EstimateAll(context.Background(), x, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := planCurve(t, m2, x)
	for j := range want {
		if math.Abs(after[j]-want[j]) > 1e-3*(1+math.Abs(want[j])) {
			t.Fatalf("τ=%d: post-swap engine %v, new model %v", j, after[j], want[j])
		}
	}
	same := true
	for j := range before {
		if before[j] != after[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("estimates unchanged after swap: old plan still serving")
	}
}
