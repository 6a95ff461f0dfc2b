package infer

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"cardnet/internal/core"
)

// TestPlanForwardAllocs pins the plan allocation contract: once a plan's
// scratch pool is warm, a forward at either tier allocates only its result,
// a matrix header and its data, at the default tensor worker count.
func TestPlanForwardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random, so forwards reallocate")
	}
	const want = 2 // the result's tensor.Matrix header and its Data
	for _, accel := range []bool{true, false} {
		// Paper-width layers, wide enough that a sharded ABT would fan out;
		// a small τmax keeps the standard encoder's τ+1 passes quick.
		cfg := core.PaperConfig(4, 16)
		cfg.Accel = accel
		m := core.New(cfg, 64)
		for _, tier := range []Precision{PrecisionF32, PrecisionF64} {
			p, err := Lower(m, tier)
			if err != nil {
				t.Fatal(err)
			}
			for _, batch := range []int{1, 4, 32} {
				xs := randomBinary(rand.New(rand.NewSource(int64(batch))), batch, m.InDim)
				name := fmt.Sprintf("accel=%v/%s/b%d", accel, tier, batch)
				t.Run(name, func(t *testing.T) {
					got := testing.AllocsPerRun(10, func() { p.EstimateAllTausBatch(xs) })
					if got != want {
						t.Fatalf("%v allocations per forward, want %d", got, want)
					}
				})
			}
		}
	}
}

// TestReplacedPlanFreedByOneGC pins that a plan nothing references is
// unreachable at the next GC, even right after a forward has used its
// scratch pool. The runtime keeps each pool used since the last-but-one GC
// reachable; were the pool part of the plan's body, a served model's
// weights would outlive its replacement by up to two GC cycles, and the
// live heap after a reload would depend on GC timing.
func TestReplacedPlanFreedByOneGC(t *testing.T) {
	for _, tier := range []Precision{PrecisionF32, PrecisionF64} {
		t.Run(string(tier), func(t *testing.T) {
			freed := usedPlanFinalized(t, tier)
			runtime.GC()
			select {
			case <-freed:
			case <-time.After(5 * time.Second):
				t.Fatal("plan body still reachable after one GC")
			}
		})
	}
}

// usedPlanFinalized lowers a small model at tier, runs one forward and
// returns a channel closed when the plan's body is finalized.
func usedPlanFinalized(t *testing.T, tier Precision) <-chan struct{} {
	m := core.New(core.DefaultConfig(4), 16)
	p, err := Lower(m, tier)
	if err != nil {
		t.Fatal(err)
	}
	p.EstimateAllTausBatch(randomBinary(rand.New(rand.NewSource(1)), 2, m.InDim))
	freed := make(chan struct{})
	switch b := p.fwd.(type) {
	case *body[float64]:
		runtime.SetFinalizer(b, func(*body[float64]) { close(freed) })
	case *body[float32]:
		runtime.SetFinalizer(b, func(*body[float32]) { close(freed) })
	}
	return freed
}

// TestGateSweepsLeaveNoScratch pins that Compile's f32 gate and MonoSweep
// run their 256-row sweeps on scratch of their own. In the plan's pool the
// sweep's buffers would serve every later batch for as long as traffic kept
// them from two GCs in a row, about 1.2 MB on the fixture-shaped model.
func TestGateSweepsLeaveNoScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch at random")
	}
	m := core.New(core.DefaultConfig(4), 16)
	p, res, err := Compile(m, PrecisionF32, GateConfig{MaxQErrP99Delta: math.Inf(1)})
	if err != nil || res.Tier != PrecisionF32 {
		t.Fatalf("compile: tier %s, %v", res.Tier, err)
	}
	MonoSweep(p, 0, 1)
	if s := p.fwd.(*body[float32]).pool.Get().(*scratch[float32]); s.x != nil {
		t.Fatalf("the plan's pool holds a %d-row scratch after the sweeps", s.x.Rows)
	}
}
