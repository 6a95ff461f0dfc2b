package core

import (
	"math/rand"
	"testing"

	"cardnet/internal/nn"
	"cardnet/internal/tensor"
)

// TestAccelScratchBitIdentical checks that the scratch-buffer forward (reused
// context) produces bit-identical embeddings to the legacy allocating path,
// call after call.
func TestAccelScratchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := newAccelEncoder(rng, 10, []int{14, 9}, 8, 5)
	ctx := nn.NewCtx()
	for iter := 0; iter < 3; iter++ {
		xp := tensor.NewMatrix(4, 10)
		tensor.RandNormal(rng, xp.Data, 0, 1)
		want := a.ForwardCtx(nil, xp, false)
		got := a.ForwardCtx(ctx, xp, false)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("iter %d: elem %d = %g, want %g", iter, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestAccelForwardAllocFree pins the satellite guarantee: once a context's
// scratch buffers are warm, the fused-encoder inference forward performs zero
// allocations.
func TestAccelForwardAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := newAccelEncoder(rng, 10, []int{14, 9}, 8, 5)
	xp := tensor.NewMatrix(4, 10)
	tensor.RandNormal(rng, xp.Data, 0, 1)
	ctx := nn.NewCtx()
	a.ForwardCtx(ctx, xp, false) // warm the scratch buffers
	allocs := testing.AllocsPerRun(20, func() {
		a.ForwardCtx(ctx, xp, false)
	})
	if allocs != 0 {
		t.Fatalf("accel inference forward allocates %v objects per call, want 0", allocs)
	}
}

// TestAccelBackwardScratch checks gradient accumulation is unchanged by the
// scratch-backed dzj buffers: same dz twice through fresh contexts must give
// identical gradients to the legacy nil-context path.
func TestAccelBackwardScratch(t *testing.T) {
	build := func() *accelEncoder {
		return newAccelEncoder(rand.New(rand.NewSource(9)), 6, []int{8, 5}, 6, 4)
	}
	rng := rand.New(rand.NewSource(10))
	xp := tensor.NewMatrix(3, 6)
	tensor.RandNormal(rng, xp.Data, 0, 1)
	dz := tensor.NewMatrix(3*4, 6)
	tensor.RandNormal(rng, dz.Data, 0, 1)

	grads := func(useCtx bool) []float64 {
		a := build()
		var c *nn.Ctx
		if useCtx {
			c = nn.NewCtx()
		}
		a.ForwardCtx(c, xp, true)
		a.BackwardCtx(c, dz)
		var out []float64
		for _, p := range a.Params() {
			g := c.GradOf(p)
			out = append(out, g...)
		}
		return out
	}
	legacy := grads(false)
	ctxed := grads(true)
	if len(legacy) != len(ctxed) {
		t.Fatalf("gradient length mismatch %d vs %d", len(legacy), len(ctxed))
	}
	for i := range legacy {
		if legacy[i] != ctxed[i] {
			t.Fatalf("gradient %d = %g, want %g", i, ctxed[i], legacy[i])
		}
	}
}
