package autopilot

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cardnet/internal/checkpoint"
	"cardnet/internal/core"
	"cardnet/internal/obs"
	"cardnet/internal/obs/monitor"
	"cardnet/internal/serving"
)

// tinyModel returns a small untrained model matching the serve tests' shape.
func tinyModel(seed int64) *core.Model {
	cfg := core.DefaultConfig(8)
	cfg.VAEHidden = []int{16}
	cfg.VAELatent = 4
	cfg.PhiHidden = []int{16}
	cfg.ZDim = 8
	cfg.Accel = true
	cfg.Seed = seed
	return core.New(cfg, 16)
}

// truthLabeler is a synthetic ground truth: a monotone cumulative curve
// derived from the query's popcount, deterministic so train and shadow agree.
func truthLabeler(x []float64, tauTop int) ([]float64, error) {
	pop := 0.0
	for _, v := range x {
		pop += v
	}
	curve := make([]float64, tauTop+1)
	for tau := range curve {
		curve[tau] = 20 + 5*float64(tau) + 3*pop
	}
	return curve, nil
}

// binX returns a distinct 16-bit binary query per index.
func binX(i int) []float64 {
	x := make([]float64, 16)
	for b := 0; b < 16; b++ {
		if (i>>(b%10))&1 == 1 || b == i%16 {
			x[b] = 1
		}
	}
	return x
}

func newTestPilot(t *testing.T, dir string, cfg Config) (*Pilot, *serving.Engine, *monitor.Monitor) {
	t.Helper()
	m := tinyModel(3)
	reg, err := serving.NewRegistry(m, serving.PlanConfig{})
	if err != nil {
		t.Fatal(err)
	}
	eng := serving.NewEngine(reg, serving.Config{CacheEntries: -1})
	t.Cleanup(eng.Close)
	mon := monitor.New(monitor.Config{Window: 64, BaselineN: 4, EWMAAlpha: 0.5}, obs.NewRegistry())
	cfg.Dir = dir
	p, err := New(cfg, eng, mon, truthLabeler)
	if err != nil {
		t.Fatal(err)
	}
	return p, eng, mon
}

func waitState(t *testing.T, p *Pilot, want string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if p.State() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("pilot never reached state %q (stuck at %q)", want, p.State())
}

func TestStateCodes(t *testing.T) {
	states := []string{StateIdle, StateTriggered, StateTraining, StateShadow, StateSwap, StateReject, StateCooldown}
	for i, s := range states {
		if StateCode(s) != i {
			t.Fatalf("StateCode(%s) = %d, want %d", s, StateCode(s), i)
		}
	}
	if StateCode("nope") != -1 {
		t.Fatalf("unknown state should code to -1")
	}
}

func TestSampleStoreDedupAndEvict(t *testing.T) {
	s := newSampleStore(4)
	for i := 0; i < 4; i++ {
		s.Observe(binX(i), i)
	}
	if s.Len() != 4 {
		t.Fatalf("len = %d, want 4", s.Len())
	}
	// Duplicates refresh, not grow.
	s.Observe(binX(0), 7)
	if s.Len() != 4 {
		t.Fatalf("after dup len = %d, want 4", s.Len())
	}
	// Overflow evicts the oldest slot and keeps the index consistent.
	s.Observe(binX(100), 1)
	if s.Len() != 4 {
		t.Fatalf("after evict len = %d, want 4", s.Len())
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatalf("after reset len = %d", s.Len())
	}
}

func TestSampleStoreBuildDeterministic(t *testing.T) {
	s := newSampleStore(64)
	for i := 0; i < 20; i++ {
		s.Observe(binX(i), i%9)
	}
	tr1, va1, err := s.Build(8, truthLabeler, 11, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	tr2, va2, err := s.Build(8, truthLabeler, 11, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if tr1.NumQueries() != tr2.NumQueries() || va1.NumQueries() != va2.NumQueries() {
		t.Fatalf("split sizes differ between identical builds")
	}
	for i := range tr1.X.Data {
		if tr1.X.Data[i] != tr2.X.Data[i] {
			t.Fatalf("train split not deterministic at %d", i)
		}
	}
	if tr1.NumQueries()+va1.NumQueries() != 20 {
		t.Fatalf("split loses rows: %d + %d != 20", tr1.NumQueries(), va1.NumQueries())
	}
	// Labels must be the ground-truth curves, monotone by construction.
	for r := 0; r < tr1.NumQueries(); r++ {
		if !core.CurveMonotone(tr1.Labels.Row(r)) {
			t.Fatalf("label row %d not monotone: %v", r, tr1.Labels.Row(r))
		}
	}
	// P sums to 1.
	sum := 0.0
	for _, p := range tr1.P {
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("P sums to %v", sum)
	}
}

// TestForcedCycleSwaps drives one full forced cycle without HTTP: trigger,
// retrain on ground truth, shadow over synthetic tap traffic, swap.
func TestForcedCycleSwaps(t *testing.T) {
	dir := t.TempDir()
	p, eng, _ := newTestPilot(t, dir, Config{
		Poll: 2 * time.Millisecond, MinSamples: 8, ShadowRate: 1.0,
		ShadowMin: 8, ShadowTimeout: 20 * time.Second, Cooldown: time.Hour,
		GateSweep: 32,
	})
	for i := 0; i < 16; i++ {
		p.Observe(binX(i), i%9)
	}
	v0 := eng.Registry().Current().Version
	p.Start()
	defer p.Close()
	p.Force()
	waitState(t, p, StateShadow, 60*time.Second)

	// Drive traffic through the engine so the tap sees batches.
	ctx := context.Background()
	deadline := time.Now().Add(60 * time.Second)
	for p.State() == StateShadow && time.Now().Before(deadline) {
		for i := 0; i < 8; i++ {
			if _, err := eng.EstimateAll(ctx, binX(i), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitState(t, p, StateCooldown, 60*time.Second)

	st := p.Status()
	if st.Swaps != 1 || st.Rejects != 0 {
		t.Fatalf("status after cycle: %+v (last: %+v)", st, st.LastDecision)
	}
	if st.LastDecision == nil || st.LastDecision.Event != "swap" {
		t.Fatalf("last decision: %+v", st.LastDecision)
	}
	if st.LastDecision.CandQGeoMean > st.LastDecision.LiveQGeoMean {
		t.Fatalf("swap with candidate worse than live: %+v", st.LastDecision)
	}
	if v := eng.Registry().Current().Version; v != v0+1 {
		t.Fatalf("registry version %d, want %d", v, v0+1)
	}
	// Staging is cleaned after a completed cycle.
	if _, err := os.Stat(filepath.Join(dir, "candidate.gob")); !os.IsNotExist(err) {
		t.Fatalf("candidate still staged after swap: %v", err)
	}
}

// TestInhibitedWinRejects confirms an operator inhibit converts a shadow win
// into a reject and the registry stays on the live model.
func TestInhibitedWinRejects(t *testing.T) {
	p, eng, _ := newTestPilot(t, t.TempDir(), Config{
		Poll: 2 * time.Millisecond, MinSamples: 8, ShadowRate: 1.0,
		ShadowMin: 8, ShadowTimeout: 20 * time.Second, Cooldown: time.Hour,
		GateSweep: 32,
	})
	for i := 0; i < 16; i++ {
		p.Observe(binX(i), i%9)
	}
	v0 := eng.Registry().Current().Version
	p.Start()
	defer p.Close()
	p.Force() // force fires even while inhibit only blocks autonomous triggers
	waitState(t, p, StateShadow, 60*time.Second)
	p.SetInhibited(true)

	ctx := context.Background()
	deadline := time.Now().Add(60 * time.Second)
	for p.State() == StateShadow && time.Now().Before(deadline) {
		for i := 0; i < 8; i++ {
			if _, err := eng.EstimateAll(ctx, binX(i), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitState(t, p, StateCooldown, 60*time.Second)

	st := p.Status()
	if st.Rejects != 1 || st.Swaps != 0 {
		t.Fatalf("inhibited cycle: %+v (last: %+v)", st, st.LastDecision)
	}
	if v := eng.Registry().Current().Version; v != v0 {
		t.Fatalf("registry swapped while inhibited (version %d)", v)
	}
}

// TestKillAndResumeMidRetrain is the mid-retrain death drill: the first pilot
// is stopped while the candidate trains (Close checkpoints the in-flight
// epoch and leaves staging intact), and a second pilot over the same staging
// directory must resume the candidate — reaching shadow without ever
// triggering — rather than starting over in idle.
func TestKillAndResumeMidRetrain(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Poll: 2 * time.Millisecond, MinSamples: 8, ShadowRate: 1.0,
		ShadowMin:     1 << 30, // never reachable: shadow holds until timeout
		ShadowTimeout: time.Hour, Cooldown: time.Hour, GateSweep: 32,
	}
	p1, _, _ := newTestPilot(t, dir, cfg)
	for i := 0; i < 32; i++ {
		p1.Observe(binX(i), i%9)
	}
	p1.Start()
	p1.Force()
	waitState(t, p1, StateTraining, 60*time.Second)
	// Wait for the first trainer checkpoint so the death is mid-retrain with
	// recoverable state on disk.
	ckDir := filepath.Join(dir, "ckpt")
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if ents, err := os.ReadDir(ckDir); err == nil && len(ents) > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	p1.Close() // the graceful stand-in for a mid-retrain death

	// The staged split must have survived for the resume to verify against.
	if _, err := os.Stat(filepath.Join(dir, "trainset.tset")); err != nil {
		t.Fatalf("train set not staged after interrupted run: %v", err)
	}

	p2, _, _ := newTestPilot(t, dir, cfg)
	p2.Start()
	defer p2.Close()
	waitState(t, p2, StateShadow, 120*time.Second)

	st := p2.Status()
	if st.Triggers != 0 {
		t.Fatalf("resumed pilot re-triggered (%d) instead of resuming", st.Triggers)
	}
	if st.Resumes == 0 {
		t.Fatalf("resumed pilot did not count a resume: %+v", st)
	}
	// The trained candidate must be staged (shadow survives another death).
	if _, err := os.Stat(filepath.Join(dir, "candidate.gob")); err != nil {
		t.Fatalf("candidate not staged during shadow: %v", err)
	}
}

// TestStartFromStagedCandidate covers the second death window: the process
// died after training finished (candidate staged) but before the shadow
// verdict — restart must go straight to shadow.
func TestStartFromStagedCandidate(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Poll: 2 * time.Millisecond, MinSamples: 8, ShadowRate: 1.0,
		ShadowMin: 1 << 30, ShadowTimeout: time.Hour, Cooldown: time.Hour,
	}
	p1, _, _ := newTestPilot(t, dir, cfg)
	// Stage a shape-compatible candidate by hand, as if training had just
	// finished when the process died.
	if err := checkpoint.SaveModel(p1.candPath(), tinyModel(9)); err != nil {
		t.Fatal(err)
	}
	p1.Start()
	defer p1.Close()
	waitState(t, p1, StateShadow, 60*time.Second)
	if st := p1.Status(); st.Triggers != 0 || st.Resumes != 1 {
		t.Fatalf("staged-candidate start: %+v", st)
	}
}

// TestNonFiniteCandidateRefused: a staged candidate with a NaN weight serves
// all-zero curves, which pass the monotonicity sweep. The registry must
// refuse to compile it, so the cycle ends in a reject that says so and the
// live version stays put.
func TestNonFiniteCandidateRefused(t *testing.T) {
	dir := t.TempDir()
	p, eng, _ := newTestPilot(t, dir, Config{
		Poll: 2 * time.Millisecond, MinSamples: 8, ShadowRate: 1.0,
		ShadowMin: 8, ShadowTimeout: 20 * time.Second, Cooldown: time.Hour,
		GateSweep: 32,
	})
	bad := tinyModel(9)
	bad.Params()[0].Value[0] = math.NaN()
	if err := checkpoint.SaveModel(p.candPath(), bad); err != nil {
		t.Fatal(err)
	}
	v0 := eng.Registry().Current().Version
	p.Start()
	defer p.Close()
	waitState(t, p, StateCooldown, 60*time.Second)

	st := p.Status()
	if st.Rejects != 1 || st.Swaps != 0 || st.LastDecision == nil {
		t.Fatalf("NaN candidate cycle: %+v (last: %+v)", st, st.LastDecision)
	}
	if !strings.Contains(st.LastDecision.Reason, "registry refused swap") {
		t.Fatalf("reject reason %q, want a registry refusal", st.LastDecision.Reason)
	}
	if v := eng.Registry().Current().Version; v != v0 {
		t.Fatalf("registry version %d after a refused candidate, want %d", v, v0)
	}
}
