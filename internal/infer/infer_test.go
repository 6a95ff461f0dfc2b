package infer

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"cardnet/internal/core"
	"cardnet/internal/tensor"
)

// testConfigs sweeps both encoder families, VAE on/off, and uneven embedding
// region splits — the same shape space the lowering tests fuzz.
func testConfigs() []core.Config {
	accel := core.DefaultConfig(6)
	accel.Accel = true
	accel.PhiHidden = []int{24, 16, 8}
	accel.ZDim = 10 // 3 regions of 4/3/3: exercises the remainder path
	accel.VAEHidden = []int{20, 12}
	accel.VAELatent = 6

	accelNoVAE := accel
	accelNoVAE.VAELatent = 0
	accelNoVAE.Seed = 2

	std := core.DefaultConfig(5)
	std.PhiHidden = []int{18, 12}
	std.ZDim = 7
	std.VAEHidden = []int{16}
	std.VAELatent = 4
	std.Seed = 3

	stdNoVAE := std
	stdNoVAE.VAELatent = 0
	stdNoVAE.Seed = 4

	return []core.Config{accel, accelNoVAE, std, stdNoVAE}
}

// randomBinary returns a rows×cols matrix of random 0/1 features.
func randomBinary(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	xs := tensor.NewMatrix(rows, cols)
	for i := range xs.Data {
		if rng.Intn(2) == 1 {
			xs.Data[i] = 1
		}
	}
	return xs
}

func TestParsePrecision(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Precision
		ok   bool
	}{
		{"", PrecisionF64, true},
		{"f64", PrecisionF64, true},
		{"f32", PrecisionF32, true},
		{"int8", "", false},
		{"fp16", "", false},
		{"F32", "", false},
	} {
		got, err := ParsePrecision(tc.in)
		if tc.ok != (err == nil) || got != tc.want {
			t.Errorf("ParsePrecision(%q) = (%q, %v), want (%q, ok=%v)", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// TestF32PlanMatchesF64 is the f32 accuracy property: over fuzzed batch sizes
// and both encoder families, the compiled f32 plan must track the exact f64
// model within float32 accumulation tolerance.
func TestF32PlanMatchesF64(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for ci, cfg := range testConfigs() {
		m := core.New(cfg, 12)
		p, err := Lower(m, PrecisionF32)
		if err != nil {
			t.Fatalf("cfg %d: Lower: %v", ci, err)
		}
		for _, b := range []int{1, 3, 9, 17} {
			xs := randomBinary(rng, b, 12)
			want := m.EstimateAllTausBatch(xs)
			got := p.EstimateAllTausBatch(xs)
			if got.Rows != want.Rows || got.Cols != want.Cols {
				t.Fatalf("cfg %d: shape %d×%d, want %d×%d", ci, got.Rows, got.Cols, want.Rows, want.Cols)
			}
			for i := range got.Data {
				w, g := want.Data[i], got.Data[i]
				if math.Abs(g-w) > 1e-3*(1+math.Abs(w)) {
					t.Fatalf("cfg %d batch %d (accel=%v): elem %d = %.9g, want %.9g", ci, b, cfg.Accel, i, g, w)
				}
			}
		}
	}
}

// TestPlanCurvesMonotone is the Lemma 2 property: every curve out of either
// plan tier must pass core.CurveMonotone, across fuzzed inputs.
func TestPlanCurvesMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for ci, cfg := range testConfigs() {
		m := core.New(cfg, 12)
		for _, tier := range []Precision{PrecisionF64, PrecisionF32} {
			p, err := Lower(m, tier)
			if err != nil {
				t.Fatalf("cfg %d %s: Lower: %v", ci, tier, err)
			}
			xs := randomBinary(rng, 16, 12)
			got := p.EstimateAllTausBatch(xs)
			for e := 0; e < got.Rows; e++ {
				if !core.CurveMonotone(got.Row(e)) {
					t.Fatalf("cfg %d %s: curve %d not monotone: %v", ci, tier, e, got.Row(e))
				}
			}
		}
	}
}

// TestEstimateAllTausMatchesBatch checks the single-query entry points are
// the one-row batch, and that every row of a batch is bit-equal to that row
// run alone (the curve cache relies on it), at both tiers. Estimate is the
// curve at every τ, 0 below τ = 0, and the τmax value above τmax.
func TestEstimateAllTausMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for ci, cfg := range testConfigs() {
		m := core.New(cfg, 12)
		for _, tier := range []Precision{PrecisionF64, PrecisionF32} {
			p, err := Lower(m, tier)
			if err != nil {
				t.Fatal(err)
			}
			xs := randomBinary(rng, 11, 12)
			batch := p.EstimateAllTausBatch(xs)
			for e := 0; e < xs.Rows; e++ {
				got := p.EstimateAllTaus(xs.Row(e))
				for i, v := range batch.Row(e) {
					if math.Float64bits(got[i]) != math.Float64bits(v) {
						t.Fatalf("cfg %d %s: row %d elem %d = %g alone, %g in batch", ci, tier, e, i, got[i], v)
					}
					if one := p.Estimate(xs.Row(e), i); math.Float64bits(one) != math.Float64bits(v) {
						t.Fatalf("cfg %d %s: row %d Estimate(τ=%d) = %g, curve %g", ci, tier, e, i, one, v)
					}
				}
				if v := p.Estimate(xs.Row(e), -1); v != 0 {
					t.Fatalf("cfg %d %s: row %d Estimate(τ=-1) = %g, want 0", ci, tier, e, v)
				}
				top := got[cfg.TauMax]
				if v := p.Estimate(xs.Row(e), cfg.TauMax+3); math.Float64bits(v) != math.Float64bits(top) {
					t.Fatalf("cfg %d %s: row %d Estimate(τ>τmax) = %g, want the τmax value %g", ci, tier, e, v, top)
				}
			}
		}
	}
}

// TestPlanImmutable checks the f32 plan holds its own (demoted) weights:
// mutating the source model must not change an already-compiled f32 plan's
// outputs.
func TestPlanImmutable(t *testing.T) {
	cfg := testConfigs()[0]
	m := core.New(cfg, 12)
	p, err := Lower(m, PrecisionF32)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	xs := randomBinary(rng, 4, 12)
	before := p.EstimateAllTausBatch(xs)
	for _, prm := range m.Params() {
		for i := range prm.Value {
			prm.Value[i] += 0.5
		}
	}
	after := p.EstimateAllTausBatch(xs)
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			t.Fatalf("plan output changed after model mutation: elem %d %g -> %g", i, before.Data[i], after.Data[i])
		}
	}
}

// TestF64PlanSharesModelWeights pins the heap contract of the f64 plan: at
// batch 2 and up its unfused layers are views of the model's weights, not
// copies. A one-row batch reads transposed copies instead, so after a
// retrain the plan would answer from new weights at batch 2 and from old
// ones at batch 1: a model that has been published must never be trained
// again.
func TestF64PlanSharesModelWeights(t *testing.T) {
	m := core.New(testConfigs()[0], 12)
	p, err := Lower(m, PrecisionF64)
	if err != nil {
		t.Fatal(err)
	}
	xs := randomBinary(rand.New(rand.NewSource(19)), 2, 12)
	before := p.EstimateAllTausBatch(xs)
	for _, prm := range m.Params() {
		for i := range prm.Value {
			prm.Value[i] *= 2
		}
	}
	after := p.EstimateAllTausBatch(xs)
	same := true
	for i := range before.Data {
		same = same && before.Data[i] == after.Data[i]
	}
	if same {
		t.Fatal("f64 plan ignored a model mutation: its layers are copies, not views")
	}
}

// TestPlanConcurrent runs one plan per tier from many goroutines (the
// serving usage) and checks results stay deterministic; under -race this
// also exercises the scratch pool for data races.
func TestPlanConcurrent(t *testing.T) {
	cfg := testConfigs()[0]
	m := core.New(cfg, 12)
	rng := rand.New(rand.NewSource(23))
	xs := randomBinary(rng, 8, 12)
	for _, tier := range []Precision{PrecisionF64, PrecisionF32} {
		p, err := Lower(m, tier)
		if err != nil {
			t.Fatal(err)
		}
		want := p.EstimateAllTausBatch(xs)
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for iter := 0; iter < 20; iter++ {
					// Alternate batch shapes so pooled scratch is resized
					// between calls.
					sub := xs.RowSlice(0, 1+(g+iter)%xs.Rows)
					got := p.EstimateAllTausBatch(sub)
					for i := range got.Data {
						if got.Data[i] != want.Data[i] {
							errs <- "concurrent result diverged"
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		if msg, ok := <-errs; ok {
			t.Fatalf("%s: %s", tier, msg)
		}
	}
}

// TestCompileGatePasses checks the happy path: on a healthy model the f32
// plan clears the accuracy gate and reports f32 as serving.
func TestCompileGatePasses(t *testing.T) {
	for ci, cfg := range testConfigs() {
		m := core.New(cfg, 12)
		p, res, err := Compile(m, PrecisionF32, GateConfig{Seed: 29})
		if err != nil {
			t.Fatalf("cfg %d: %v", ci, err)
		}
		if !res.Pass || res.Tier != PrecisionF32 || p == nil {
			t.Fatalf("cfg %d: gate failed on healthy model: %+v", ci, res)
		}
		if res.MonoViolations != 0 {
			t.Fatalf("cfg %d: %d monotonicity violations", ci, res.MonoViolations)
		}
	}
}

// TestCompileF64Plan checks that requesting f64 yields the f64 plan and a
// trivially passing gate, with no nn sweep run.
func TestCompileF64Plan(t *testing.T) {
	m := core.New(testConfigs()[0], 12)
	p, res, err := Compile(m, PrecisionF64, GateConfig{})
	if err != nil || p == nil || p.Tier() != PrecisionF64 || !res.Pass || res.Tier != PrecisionF64 {
		t.Fatalf("Compile f64 = (%v, %+v, %v), want f64 plan, pass, f64", p, res, err)
	}
	if res.QErrP99Delta != 0 || res.MonoViolations != 0 {
		t.Fatalf("f64 compile ran a gate sweep: %+v", res)
	}
}

// requireF64Plan fails unless p answers bit for bit like Lower(m,
// PrecisionF64), over batches of several rows and one row.
func requireF64Plan(t *testing.T, m *core.Model, p *Plan) {
	t.Helper()
	want, err := Lower(m, PrecisionF64)
	if err != nil {
		t.Fatal(err)
	}
	if p == nil || p.Tier() != PrecisionF64 {
		t.Fatalf("plan %v, want an f64 plan", p)
	}
	xs := randomBinary(rand.New(rand.NewSource(37)), 9, m.InDim)
	for _, sub := range []*tensor.Matrix{xs, xs.RowSlice(0, 1)} {
		got, exp := p.EstimateAllTausBatch(sub), want.EstimateAllTausBatch(sub)
		for i, v := range exp.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
				t.Fatalf("batch %d elem %d: plan %v, Lower f64 %v", sub.Rows, i, got.Data[i], v)
			}
		}
	}
}

// TestCompileGateFallback is the acceptance-required fallback property: with
// a q-error bound tighter than float32 demotion can meet, the f32 gate must
// fail and Compile must return the f64 plan, while the same model clears the
// default bound.
// f32 rounding moves this model's curves by about 1e-7 in q-error, so any
// bound at or below 1e-9 fails.
func TestCompileGateFallback(t *testing.T) {
	m := core.New(testConfigs()[1], 12)
	gc := GateConfig{MaxQErrP99Delta: 1e-12, Seed: 31}

	p, res, err := Compile(m, PrecisionF32, gc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass {
		t.Fatalf("f32 gate passed a %g bound: %+v", gc.MaxQErrP99Delta, res)
	}
	if res.Tier != PrecisionF64 || res.Requested != PrecisionF32 {
		t.Fatalf("gate failure must fall back to the f64 plan: plan %v, %+v", p, res)
	}
	requireF64Plan(t, m, p)
	if res.QErrP99Delta <= res.MaxQErrP99Delta {
		t.Fatalf("expected q-error delta above bound, got %+v", res)
	}
	if res.Reason == "" {
		t.Fatal("gate failure must carry a reason")
	}

	p32, res32, err := Compile(m, PrecisionF32, GateConfig{Seed: gc.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if !res32.Pass || p32 == nil || p32.Tier() != PrecisionF32 {
		t.Fatalf("f32 should pass the default bound: %+v", res32)
	}
}

// TestCompileGateMonotoneFallback forces the gate's other failure: weights
// scaled by 1e8 stay finite at both tiers, but the f32 forward overflows to
// +Inf, so its curves fail core.CurveMonotone while the f64 plan's do not.
// Compile must report the violations and return the f64 plan.
func TestCompileGateMonotoneFallback(t *testing.T) {
	m := core.New(testConfigs()[3], 12)
	for _, prm := range m.Params() {
		for i := range prm.Value {
			prm.Value[i] *= 1e8
		}
	}
	p, res, err := Compile(m, PrecisionF32, GateConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass || res.Tier != PrecisionF64 || res.MonoViolations == 0 {
		t.Fatalf("f32 gate should fail on monotonicity: %+v", res)
	}
	requireF64Plan(t, m, p)
	if n := MonoSweep(p, 0, 3); n != 0 {
		t.Fatalf("the f64 fallback plan has %d violations", n)
	}
}

// TestGateResultSameAtAnyWorkerCount pins that sharding the sweeps over the
// tensor pool changes no bit of the gate: GateResult, QErrP99Delta's bits
// included, and MonoSweep's count are the same at one, two and three
// workers, for the default sweep and a short one that leaves small shards.
func TestGateResultSameAtAnyWorkerCount(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	for ci, cfg := range testConfigs() {
		m := core.New(cfg, 12)
		for _, gc := range []GateConfig{{Seed: 41}, {Seed: 43, Sweep: 37}} {
			var want GateResult
			var wantMono int
			for _, w := range []int{1, 2, 3} {
				tensor.SetWorkers(w)
				p, res, err := Compile(m, PrecisionF32, gc)
				if err != nil {
					t.Fatal(err)
				}
				mono := MonoSweep(p, gc.Sweep, gc.Seed)
				if w == 1 {
					want, wantMono = res, mono
					continue
				}
				if res != want || math.Float64bits(res.QErrP99Delta) != math.Float64bits(want.QErrP99Delta) {
					t.Fatalf("cfg %d sweep %d: %d workers %+v, 1 worker %+v", ci, gc.Sweep, w, res, want)
				}
				if mono != wantMono {
					t.Fatalf("cfg %d sweep %d: MonoSweep %d at %d workers, %d at 1", ci, gc.Sweep, mono, w, wantMono)
				}
			}
		}
	}
}

// TestF64PlanTracksNNOverGateSweep keeps the chain the f32 gate relies on
// checked: the gate measures the f32 plan against the f64 plan, and the f64
// plan must stay within about 1e-14 relative of the model's nn forward over
// the gate's own sweep, on the test shapes and on the paper's CardNet-A
// shape at the benchmark fixture's 64-bit input.
func TestF64PlanTracksNNOverGateSweep(t *testing.T) {
	models := []*core.Model{}
	for _, cfg := range testConfigs() {
		models = append(models, core.New(cfg, 12))
	}
	paper := core.PaperConfig(20, 16)
	paper.Accel = true
	models = append(models, core.New(paper, 84))
	for mi, m := range models {
		p, err := Lower(m, PrecisionF64)
		if err != nil {
			t.Fatal(err)
		}
		got := sweepCurves(DefaultGateSweep, 47, p)[0]
		want := m.EstimateAllTausBatch(sweepInputs(DefaultGateSweep, m.InDim, 47))
		for i, w := range want.Data {
			if g := got.Data[i]; math.Abs(g-w) > 1e-14*math.Max(1, math.Abs(w)) {
				t.Fatalf("model %d elem %d: f64 plan %.17g, nn %.17g", mi, i, g, w)
			}
		}
	}
}

// TestCompileConcurrent runs two f32 Compile calls at once (two replicas
// reloading, or a reload beside the autopilot's candidate compile), each
// sharding its sweeps over the shared tensor pool. Both must match a lone
// Compile's result; under -race this checks the side-by-side lowering and
// the sharded sweeps for data races.
func TestCompileConcurrent(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(2))
	m := core.New(testConfigs()[0], 12)
	gc := GateConfig{Seed: 53}
	_, want, err := Compile(m, PrecisionF32, gc)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]GateResult, 2)
	errs := make([]error, 2)
	for g := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, results[g], errs[g] = Compile(m, PrecisionF32, gc)
		}()
	}
	wg.Wait()
	for g, res := range results {
		if errs[g] != nil || res != want {
			t.Fatalf("concurrent Compile %d = (%+v, %v), want %+v", g, res, errs[g], want)
		}
	}
}

// TestLowerRejectsNonFinite is the silent-zero bug: a NaN or infinite weight
// turns every curve into zeros through the ReLU clamps, which CurveMonotone,
// the f32 gate and MonoSweep all accept. Lowering must refuse the model at
// every tier, wherever the bad value lands: an unfused VAE layer, a fused
// CardNet-A head, or the standard encoder's folded per-distance bias.
func TestLowerRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   core.Config
		param int // index into Params()
		bad   float64
	}{
		{"vae weight NaN", testConfigs()[0], 0, math.NaN()},
		{"head weight +Inf", testConfigs()[1], 3, math.Inf(1)}, // E, trunk 0 W, trunk 0 B, head 0 W
		{"embedding -Inf", testConfigs()[3], 0, math.Inf(-1)},
	} {
		m := core.New(tc.cfg, 12)
		m.Params()[tc.param].Value[0] = tc.bad
		for _, tier := range []Precision{PrecisionF64, PrecisionF32} {
			if _, err := Lower(m, tier); err == nil {
				t.Fatalf("%s: Lower(%s) accepted the model", tc.name, tier)
			}
			if p, _, err := Compile(m, tier, GateConfig{}); err == nil || p != nil {
				t.Fatalf("%s: Compile(%s) = (%v, %v), want an error and no plan", tc.name, tier, p, err)
			}
		}
	}
}
