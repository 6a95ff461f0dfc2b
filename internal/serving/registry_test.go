package serving

import (
	"errors"
	"math"
	"testing"

	"cardnet/internal/core"
	"cardnet/internal/infer"
)

func TestRegistrySwapValidatesShapes(t *testing.T) {
	base := testModel(1)
	reg := testRegistry(t, base)

	if v := reg.Current().Version; v != 1 {
		t.Fatalf("initial version %d", v)
	}

	// Wrong input dimensionality.
	cfg := base.Cfg
	wrongDim := core.New(cfg, base.InDim+8)
	if _, err := reg.Swap(wrongDim); !errors.Is(err, ErrBadInput) {
		t.Fatalf("wrong InDim accepted: err=%v", err)
	}

	// Wrong τ range.
	cfg2 := core.DefaultConfig(base.Cfg.TauMax + 3)
	cfg2.VAEHidden = []int{16}
	cfg2.VAELatent = 4
	cfg2.PhiHidden = []int{16, 16}
	cfg2.ZDim = 8
	cfg2.Accel = true
	wrongTau := core.New(cfg2, base.InDim)
	if _, err := reg.Swap(wrongTau); !errors.Is(err, ErrBadInput) {
		t.Fatalf("wrong TauMax accepted: err=%v", err)
	}

	if _, err := reg.Swap(nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil model accepted: err=%v", err)
	}

	// Rejected swaps must not advance the version or change the model.
	if cur := reg.Current(); cur.Version != 1 || cur.Model != base {
		t.Fatalf("registry changed by rejected swaps: v=%d", cur.Version)
	}

	// A compatible model (different weights, same shape) swaps fine.
	next := testModel(2)
	v, err := reg.Swap(next)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("swap version %d, want 2", v)
	}
	if m := reg.Current().Model; m != next {
		t.Fatal("Current did not return the swapped model")
	}
}

func TestRegistryOnSwapFiresPerSuccessfulSwap(t *testing.T) {
	reg := testRegistry(t, testModel(1))
	var fired int
	reg.OnSwap(func() { fired++ })

	if _, err := reg.Swap(nil); err == nil {
		t.Fatal("nil swap accepted")
	}
	if fired != 0 {
		t.Fatal("OnSwap fired for a rejected swap")
	}
	if _, err := reg.Swap(testModel(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Swap(testModel(3)); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("OnSwap fired %d times, want 2", fired)
	}
}

// TestRegistryRefusesNonFiniteModel: a model with a NaN weight would serve
// all-zero curves that pass every monotonicity check, so the registry must
// refuse it both at construction and on Swap, leaving the live snapshot and
// version untouched.
func TestRegistryRefusesNonFiniteModel(t *testing.T) {
	bad := testModel(2)
	bad.Params()[0].Value[0] = math.NaN()
	for _, prec := range []infer.Precision{infer.PrecisionF64, infer.PrecisionF32} {
		if _, err := NewRegistry(bad, PlanConfig{Precision: prec}); !errors.Is(err, ErrBadInput) {
			t.Fatalf("%s: NewRegistry accepted a NaN model: err=%v", prec, err)
		}
		reg := mustRegistry(t, testModel(1), PlanConfig{Precision: prec})
		fired := 0
		reg.OnSwap(func() { fired++ })
		before := reg.Current()
		if _, err := reg.Swap(bad); !errors.Is(err, ErrBadInput) {
			t.Fatalf("%s: Swap accepted a NaN model: err=%v", prec, err)
		}
		if reg.Current() != before || fired != 0 {
			t.Fatalf("%s: refused swap changed the registry (version %d, %d swap callbacks)", prec, reg.Current().Version, fired)
		}
	}
}
