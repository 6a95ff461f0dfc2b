// Package autopilot closes the paper's incremental-learning loop (Section 8)
// into a self-healing serving deployment: it watches the online drift monitor
// for a sustained retrain-recommended signal, incrementally retrains a
// candidate model on the feedback and audit samples accumulated from live
// traffic, shadow-evaluates the candidate against ground truth on a sampled
// fraction of real requests without affecting responses, and hot-swaps the
// serving registry only when the candidate wins both the rolling q-error
// comparison and a Lemma-2 monotonicity sweep (infer.MonoSweep) — MonoM's
// observation that monotonicity must be re-verified on every retrained
// estimator, applied as a gate in front of the swap.
//
// The pilot is a state machine:
//
//	idle → triggered → training → shadow → swap | reject → cooldown → idle
//
// Every transition and every verdict is journaled as JSONL, mirrored into
// autopilot.* metrics, and exposed through Status for /healthz. Training is
// checkpointed through internal/checkpoint and the train/valid split is
// staged next to the checkpoints, so a process that dies mid-retrain resumes
// the same candidate bit-identically on restart instead of falling back to
// idle and re-triggering.
package autopilot

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cardnet/internal/checkpoint"
	"cardnet/internal/core"
	"cardnet/internal/infer"
	"cardnet/internal/obs"
	"cardnet/internal/obs/monitor"
	"cardnet/internal/serving"
)

// States of the pilot, in transition order. StateSwap and StateReject are
// momentary (the decision itself); the pilot rests in idle, training, shadow,
// or cooldown.
const (
	StateIdle      = "idle"
	StateTriggered = "triggered"
	StateTraining  = "training"
	StateShadow    = "shadow"
	StateSwap      = "swap"
	StateReject    = "reject"
	StateCooldown  = "cooldown"
)

// StateCode maps a state name onto the numeric value of the autopilot.state
// gauge (idle 0, triggered 1, training 2, shadow 3, swap 4, reject 5,
// cooldown 6; -1 for an unknown name).
func StateCode(state string) int {
	switch state {
	case StateIdle:
		return 0
	case StateTriggered:
		return 1
	case StateTraining:
		return 2
	case StateShadow:
		return 3
	case StateSwap:
		return 4
	case StateReject:
		return 5
	case StateCooldown:
		return 6
	default:
		return -1
	}
}

// Pilot metrics on the shared default registry, exposed by /metrics next to
// the serving and monitor families.
var (
	mState         = obs.Default.Gauge("autopilot.state")
	mSamples       = obs.Default.Gauge("autopilot.samples")
	mTriggers      = obs.Default.Counter("autopilot.triggers")
	mSwaps         = obs.Default.Counter("autopilot.swaps")
	mRejects       = obs.Default.Counter("autopilot.rejects")
	mResumes       = obs.Default.Counter("autopilot.resumes")
	mShadowBatches = obs.Default.Counter("autopilot.shadow.batches")
	mShadowRows    = obs.Default.Counter("autopilot.shadow.rows")
	mShadowDropped = obs.Default.Counter("autopilot.shadow.dropped")
)

// Labeler returns the exact cumulative cardinality curve for one encoded
// query at every τ in [0, tauTop] — the ground truth the candidate trains
// toward and the shadow evaluation scores against. In cardnet serve it is the
// simselect.EncodedOracle's CurveEncoded (Hamming workloads, where the
// encoding is the identity); tests substitute arbitrary truth functions.
type Labeler func(x []float64, tauTop int) ([]float64, error)

// Config tunes the pilot; zero values take the documented defaults.
type Config struct {
	// Dir is the staging directory for the candidate's train/valid split,
	// trainer checkpoints, and trained candidate model. Required: resume
	// after a mid-retrain death starts from what this directory holds.
	Dir string
	// Dwell is how long the drift monitor must report retrain-recommended
	// without interruption before the pilot triggers (default 30s).
	Dwell time.Duration
	// Poll is the idle-loop tick (default 1s).
	Poll time.Duration
	// Cooldown is the rest period after a swap or reject before the pilot
	// re-arms (default 5m). It bounds retrain churn when drift persists.
	Cooldown time.Duration
	// MinSamples is the fewest accumulated distinct queries needed to build
	// a candidate train set (default 64). A trigger with fewer samples is
	// declined and re-evaluated on the next poll.
	MinSamples int
	// MaxSamples caps the sample ring; the oldest queries are evicted
	// (default 4096).
	MaxSamples int
	// ValidFrac is the fraction of accumulated samples held out for
	// validation (default 0.2).
	ValidFrac float64
	// TrainWorkers is the data-parallel width of the candidate retrain
	// (default 1: sequential, deterministic, and minimally disruptive to the
	// serving process sharing the machine).
	TrainWorkers int
	// CkptEvery / CkptRetain tune the candidate's trainer checkpoints
	// (defaults 1 and 3, matching cardnet train).
	CkptEvery  int
	CkptRetain int
	// ShadowRate is the fraction of live batches dual-run through the
	// candidate during shadow evaluation (default 0.25). Sampling is
	// counter-based: 1 in round(1/rate) batches.
	ShadowRate float64
	// ShadowMin is how many live rows the shadow comparison needs before a
	// verdict (default 256).
	ShadowMin int
	// ShadowTimeout bounds the shadow phase; if ShadowMin rows have not
	// arrived in time the candidate is rejected for insufficient evidence
	// (default 2m).
	ShadowTimeout time.Duration
	// WinRatio is the bar the candidate must clear: its shadow q-error
	// geometric mean must be ≤ WinRatio × the live model's (default 1.0 —
	// the candidate must not be worse).
	WinRatio float64
	// GateSweep / GateSeed parameterize the Lemma-2 monotonicity sweep
	// (infer.MonoSweep) every winning candidate must pass with zero
	// violations (defaults infer.DefaultGateSweep and 0).
	GateSweep int
	GateSeed  int64
	// PublishPath, when set, receives the swapped-in candidate through the
	// atomic model writer so a process restart serves the post-swap model.
	PublishPath string
	// Journal, when set, receives one JSONL line per transition and
	// decision.
	Journal *obs.Sink
	// SLOSink, when set, mirrors swap/reject decisions into the SLO
	// transition log so one stream carries every operational state change.
	SLOSink *obs.Sink
}

func (c Config) withDefaults() Config {
	if c.Dwell <= 0 {
		c.Dwell = 30 * time.Second
	}
	if c.Poll <= 0 {
		c.Poll = time.Second
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Minute
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 64
	}
	if c.MaxSamples < c.MinSamples {
		c.MaxSamples = 4096
	}
	if c.ValidFrac <= 0 || c.ValidFrac >= 1 {
		c.ValidFrac = 0.2
	}
	if c.TrainWorkers < 1 {
		c.TrainWorkers = 1
	}
	if c.CkptEvery < 1 {
		c.CkptEvery = 1
	}
	if c.CkptRetain < 1 {
		c.CkptRetain = 3
	}
	if c.ShadowRate <= 0 || c.ShadowRate > 1 {
		c.ShadowRate = 0.25
	}
	if c.ShadowMin <= 0 {
		c.ShadowMin = 256
	}
	if c.ShadowTimeout <= 0 {
		c.ShadowTimeout = 2 * time.Minute
	}
	if c.WinRatio <= 0 {
		c.WinRatio = 1.0
	}
	if c.GateSweep <= 0 {
		c.GateSweep = infer.DefaultGateSweep
	}
	return c
}

// Decision records the outcome of one completed loop iteration — the fields
// an operator reads first when auditing why the pilot swapped or declined.
type Decision struct {
	Time            time.Time `json:"time"`
	Event           string    `json:"event"` // "swap" or "reject"
	Reason          string    `json:"reason"`
	ShadowRows      int       `json:"shadow_rows"`
	LiveQGeoMean    float64   `json:"live_q_geomean"`
	CandQGeoMean    float64   `json:"cand_q_geomean"`
	MonoViolations  int       `json:"mono_violations"`
	CandidateEpochs int       `json:"candidate_epochs"`
	ModelVersion    uint64    `json:"model_version,omitempty"` // post-swap registry version
}

// Status is the pilot's /healthz block.
type Status struct {
	State        string    `json:"state"`
	Inhibited    bool      `json:"inhibited"`
	Samples      int       `json:"samples"`
	Triggers     uint64    `json:"triggers"`
	Swaps        uint64    `json:"swaps"`
	Rejects      uint64    `json:"rejects"`
	Resumes      uint64    `json:"resumes"`
	LastDecision *Decision `json:"last_decision,omitempty"`
}

// Pilot is the drift-to-swap state machine. Build with New, start the loop
// with Start, stop with Close (which interrupts a mid-flight retrain at the
// next epoch boundary, checkpointing it for resume).
type Pilot struct {
	cfg   Config
	eng   *serving.Engine
	reg   *serving.Registry
	mon   *monitor.Monitor
	label Labeler

	store *sampleStore

	state     atomic.Value // string
	inhibited atomic.Bool
	force     atomic.Bool

	triggers atomic.Uint64
	swaps    atomic.Uint64
	rejects  atomic.Uint64
	resumes  atomic.Uint64

	// candEpochs carries the epoch count from training into the shadow
	// decision record. After a resume from a staged candidate it reads zero:
	// the count belongs to the process that trained, and the journal line it
	// emitted already holds it.
	candEpochs atomic.Int64

	mu       sync.Mutex
	last     *Decision
	activeCk *checkpoint.Checkpointer // non-nil while a retrain runs

	stopCh  chan struct{}
	doneCh  chan struct{}
	stopped atomic.Bool
	started bool
}

// New builds a pilot over a serving engine, its drift monitor, and a ground-
// truth labeler. The staging directory is created if missing. The loop does
// not run until Start.
func New(cfg Config, eng *serving.Engine, mon *monitor.Monitor, label Labeler) (*Pilot, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("autopilot: Config.Dir is required (candidate staging and resume live there)")
	}
	if eng == nil || mon == nil || label == nil {
		return nil, fmt.Errorf("autopilot: engine, monitor, and labeler are all required")
	}
	if err := ensureDir(cfg.Dir); err != nil {
		return nil, err
	}
	p := &Pilot{
		cfg:    cfg,
		eng:    eng,
		reg:    eng.Registry(),
		mon:    mon,
		label:  label,
		store:  newSampleStore(cfg.MaxSamples),
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}
	p.setState(StateIdle)
	return p, nil
}

// Observe feeds one live labelled query into the pilot's sample ring: every
// /feedback body and every audit replay calls it, so the candidate retrains
// on the traffic that exposed the drift. Duplicate encodings refresh their
// position instead of occupying two slots. Safe for concurrent use; x is
// copied.
func (p *Pilot) Observe(x []float64, tau int) {
	p.store.Observe(x, tau)
	mSamples.Set(float64(p.store.Len()))
}

// Samples reports how many distinct queries the ring currently holds.
func (p *Pilot) Samples() int { return p.store.Len() }

// Force arms an immediate trigger: the next poll fires regardless of the
// drift level or dwell window (the sample floor still applies). Exposed as
// POST /admin/autopilot {"action":"force"}.
func (p *Pilot) Force() { p.force.Store(true) }

// SetInhibited pauses (true) or resumes (false) autonomous action: an
// inhibited pilot neither triggers retrains nor swaps — a shadow verdict that
// would have swapped is journaled as a reject with reason "swap inhibited by
// operator". Exposed as POST /admin/autopilot {"action":"inhibit"|"resume"}.
func (p *Pilot) SetInhibited(v bool) { p.inhibited.Store(v) }

// Inhibited reports whether autonomous action is paused.
func (p *Pilot) Inhibited() bool { return p.inhibited.Load() }

// Forced reports whether a Force is armed and waits for the next poll.
func (p *Pilot) Forced() bool { return p.force.Load() }

// State returns the current state name.
func (p *Pilot) State() string { return p.state.Load().(string) }

// Status snapshots the pilot for /healthz.
func (p *Pilot) Status() Status {
	p.mu.Lock()
	last := p.last
	p.mu.Unlock()
	return Status{
		State:        p.State(),
		Inhibited:    p.Inhibited(),
		Samples:      p.store.Len(),
		Triggers:     p.triggers.Load(),
		Swaps:        p.swaps.Load(),
		Rejects:      p.rejects.Load(),
		Resumes:      p.resumes.Load(),
		LastDecision: last,
	}
}

// Start launches the loop. If the staging directory holds an interrupted
// run — a trained candidate awaiting shadow, or a staged train set with (or
// without) trainer checkpoints — the pilot resumes it instead of starting
// idle: a mid-retrain death costs at most the in-flight epoch, never the
// whole retrain.
func (p *Pilot) Start() {
	p.mu.Lock()
	if p.started {
		p.mu.Unlock()
		return
	}
	p.started = true
	p.mu.Unlock()
	go p.run()
}

// Close stops the loop and blocks until it exits. A retrain in flight is
// asked to stop at the next epoch boundary and checkpoints that epoch, so
// the staging directory stays resumable — Close during training is the
// graceful version of the death the resume path covers.
func (p *Pilot) Close() {
	if p.stopped.Swap(true) {
		<-p.doneCh
		return
	}
	close(p.stopCh)
	p.mu.Lock()
	if p.activeCk != nil {
		p.activeCk.RequestStop()
	}
	started := p.started
	p.mu.Unlock()
	if !started {
		close(p.doneCh)
		return
	}
	<-p.doneCh
}

func (p *Pilot) stopping() bool {
	select {
	case <-p.stopCh:
		return true
	default:
		return false
	}
}

// sleep waits for d or until Close, reporting whether the full wait elapsed.
func (p *Pilot) sleep(d time.Duration) bool {
	select {
	case <-time.After(d):
		return true
	case <-p.stopCh:
		return false
	}
}

func (p *Pilot) setState(s string) {
	p.state.Store(s)
	mState.Set(float64(StateCode(s)))
}

// transition moves the machine to `to` and journals the edge with the given
// reason and extra fields.
func (p *Pilot) transition(to, reason string, fields map[string]any) {
	from := p.State()
	p.setState(to)
	if p.cfg.Journal == nil {
		return
	}
	out := map[string]any{"from": from, "to": to, "reason": reason}
	for k, v := range fields {
		out[k] = v
	}
	// Journal writes are best-effort: a full disk must not stop the loop.
	_ = p.cfg.Journal.Emit("autopilot", out)
}

// recordDecision stores the loop outcome for Status, bumps the counter, and
// mirrors it into the SLO transition stream when one is wired.
func (p *Pilot) recordDecision(d *Decision) {
	d.Time = time.Now()
	p.mu.Lock()
	p.last = d
	p.mu.Unlock()
	if d.Event == "swap" {
		p.swaps.Add(1)
		mSwaps.Inc()
	} else {
		p.rejects.Add(1)
		mRejects.Inc()
	}
	if p.cfg.SLOSink != nil {
		_ = p.cfg.SLOSink.Emit("autopilot.decision", map[string]any{
			"event":         d.Event,
			"reason":        d.Reason,
			"shadow_rows":   d.ShadowRows,
			"live_q":        d.LiveQGeoMean,
			"cand_q":        d.CandQGeoMean,
			"model_version": d.ModelVersion,
		})
	}
}

// run is the state-machine loop. Each iteration drives one full cycle; a
// resumable interruption (Close mid-retrain) returns with staging intact.
func (p *Pilot) run() {
	defer close(p.doneCh)

	// A previous process may have died mid-cycle: pick up where it left off.
	cand, st, train, valid, phase := p.detectStaging()
	for !p.stopping() {
		switch phase {
		case resumeNone:
			if !p.waitTrigger() {
				return
			}
			var ok bool
			train, valid, ok = p.stageTrainSet()
			if !ok {
				// Declined (too few samples, labeler failure): re-arm.
				phase = resumeNone
				if !p.sleep(p.cfg.Poll) {
					return
				}
				continue
			}
			fallthrough
		case resumeTraining:
			var interrupted bool
			cand, interrupted = p.trainCandidate(train, valid, st)
			st = nil
			if interrupted {
				return // staging retained; next Start resumes
			}
			if cand == nil { // training declined (skipped / failed)
				p.finishCycle()
				phase = resumeNone
				continue
			}
			fallthrough
		case resumeShadow:
			if !p.shadowAndDecide(cand) {
				return // closing mid-shadow; candidate stays staged for resume
			}
			p.finishCycle()
			phase = resumeNone
		}
	}
}

// waitTrigger blocks in idle until the drift level has been
// retrain-recommended for the dwell window (or an operator forces a
// trigger), returning false when the pilot is closing. Inhibition holds the
// pilot in idle regardless of drift.
func (p *Pilot) waitTrigger() bool {
	for {
		if p.stopping() {
			return false
		}
		if forced := p.force.Swap(false); forced && !p.Inhibited() {
			p.triggers.Add(1)
			mTriggers.Inc()
			p.transition(StateTriggered, "forced by operator", map[string]any{
				"samples": p.store.Len(),
			})
			return true
		}
		if !p.Inhibited() {
			level, since := p.mon.LevelSince()
			if level >= 2 && !since.IsZero() && time.Since(since) >= p.cfg.Dwell {
				p.triggers.Add(1)
				mTriggers.Inc()
				p.transition(StateTriggered, "drift retrain-recommended sustained past dwell", map[string]any{
					"dwell_seconds": p.cfg.Dwell.Seconds(),
					"level_seconds": time.Since(since).Seconds(),
					"samples":       p.store.Len(),
				})
				return true
			}
		}
		if !p.sleep(p.cfg.Poll) {
			return false
		}
	}
}

// stageTrainSet builds the candidate's train/valid split from the sample
// ring, labels it through the ground-truth labeler, and persists it to the
// staging directory so a resumed process retrains on byte-identical data.
func (p *Pilot) stageTrainSet() (train, valid *core.TrainSet, ok bool) {
	live := p.reg.Current().Model
	if n := p.store.Len(); n < p.cfg.MinSamples {
		p.transition(StateIdle, "trigger declined: too few samples", map[string]any{
			"samples": n, "min_samples": p.cfg.MinSamples,
		})
		return nil, nil, false
	}
	train, valid, err := p.store.Build(live.TauTop, p.label, p.cfg.GateSeed, p.cfg.ValidFrac)
	if err != nil {
		p.transition(StateIdle, "trigger declined: labeling failed", map[string]any{"error": err.Error()})
		return nil, nil, false
	}
	if err := checkpoint.SaveTrainSet(p.tsetPath(), train, valid); err != nil {
		p.transition(StateIdle, "trigger declined: staging train set failed", map[string]any{"error": err.Error()})
		return nil, nil, false
	}
	return train, valid, true
}

// trainCandidate runs (or resumes) the checkpointed incremental retrain and
// publishes the finished candidate into staging. A cooperative interruption
// (Close) returns interrupted=true with staging intact. A nil candidate with
// interrupted=false means the cycle ends without a candidate (training
// skipped or failed) — the caller cleans up and re-arms.
func (p *Pilot) trainCandidate(train, valid *core.TrainSet, st *core.TrainerState) (cand *core.Model, interrupted bool) {
	fields := map[string]any{"train_rows": train.NumQueries(), "valid_rows": valid.NumQueries()}
	var err error
	if st != nil {
		cand, err = core.RestoreTrainer(st)
		fields["resumed_epoch"] = st.Epoch
	} else {
		cand, err = cloneModel(p.reg.Current().Model)
		if cand != nil {
			cand.Cfg.Workers = p.cfg.TrainWorkers
		}
	}
	if err != nil {
		p.transition(StateIdle, "training declined: candidate construction failed", map[string]any{"error": err.Error()})
		return nil, false
	}
	store, err := checkpoint.OpenStore(p.ckptDir(), p.cfg.CkptRetain)
	if err != nil {
		p.transition(StateIdle, "training declined: checkpoint store unavailable", map[string]any{"error": err.Error()})
		return nil, false
	}
	ck := checkpoint.NewCheckpointer(store, p.cfg.CkptEvery)
	cand.Cfg.Hook = ck.Hook(nil)
	cand.Cfg.Stop = ck.StopRequested
	p.mu.Lock()
	p.activeCk = ck
	if p.stopped.Load() {
		ck.RequestStop()
	}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.activeCk = nil
		p.mu.Unlock()
	}()

	p.transition(StateTraining, "incremental retrain on accumulated samples", fields)
	var res core.IncrementalResult
	if st != nil {
		res, err = cand.ResumeIncrementalTrain(train, valid, st)
	} else {
		res, err = cand.IncrementalTrain(train, valid, 0), nil
	}
	if err != nil {
		p.transition(StateIdle, "training failed", map[string]any{"error": err.Error()})
		return nil, false
	}
	if res.Interrupted {
		p.transition(StateTraining, "retrain interrupted; staging retained for resume", map[string]any{
			"epochs": res.Epochs,
		})
		return nil, true
	}
	if res.Skipped {
		p.transition(StateReject, "training skipped: validation error had not degraded", nil)
		p.recordDecision(&Decision{Event: "reject", Reason: "incremental trainer skipped: no degradation on candidate data"})
		return nil, false
	}
	if err := checkpoint.SaveModel(p.candPath(), cand); err != nil {
		p.transition(StateIdle, "training completed but candidate staging failed", map[string]any{"error": err.Error()})
		return nil, false
	}
	p.candEpochs.Store(int64(res.Epochs))
	p.transition(StateShadow, "candidate trained; shadow evaluation begins", map[string]any{
		"epochs": res.Epochs, "valid_msle": res.ValidMSLE,
	})
	return cand, false
}

// shadowAndDecide compiles the candidate into the snapshot the registry
// would publish, dual-runs sampled live traffic through that snapshot's plan,
// scores both against ground truth, runs the monotonicity sweep on the same
// plan, and either publishes the snapshot or rejects the candidate. It
// reports false when the pilot closed before a verdict was reached — the
// candidate then stays staged so a restart resumes straight into shadow.
func (p *Pilot) shadowAndDecide(cand *core.Model) bool {
	p.setState(StateShadow)
	d := &Decision{Event: "reject", CandidateEpochs: int(p.candEpochs.Load())}
	next, err := p.reg.Prepare(cand)
	if err != nil {
		d.Reason = fmt.Sprintf("registry refused swap: %v", err)
		p.transition(StateReject, d.Reason, nil)
		p.recordDecision(d)
		return true
	}
	ev := newShadowEval(next.Plan, p.label, p.cfg.ShadowRate, p.cfg.ShadowMin)
	p.eng.SetShadowTap(ev.tap)
	defer func() {
		p.eng.SetShadowTap(nil)
		ev.close()
	}()

	select {
	case <-ev.ready:
	case <-time.After(p.cfg.ShadowTimeout):
	case <-p.stopCh:
		return false
	}
	rows, liveG, candG := ev.summary()
	d.ShadowRows, d.LiveQGeoMean, d.CandQGeoMean = rows, liveG, candG
	switch {
	case rows < p.cfg.ShadowMin:
		d.Reason = fmt.Sprintf("insufficient shadow traffic: %d of %d rows before timeout", rows, p.cfg.ShadowMin)
	case candG > liveG*p.cfg.WinRatio:
		d.Reason = fmt.Sprintf("candidate q-error geomean %.4f exceeds live %.4f × win ratio %.2f", candG, liveG, p.cfg.WinRatio)
	default:
		d.MonoViolations = infer.MonoSweep(next.Plan, p.cfg.GateSweep, p.cfg.GateSeed)
		if d.MonoViolations > 0 {
			d.Reason = fmt.Sprintf("%d of %d monotonicity sweep curves violate Lemma 2", d.MonoViolations, p.cfg.GateSweep)
		} else if p.Inhibited() {
			d.Reason = "swap inhibited by operator"
		} else {
			d.Event = "swap"
			d.Reason = fmt.Sprintf("candidate q-error geomean %.4f ≤ live %.4f, 0 monotonicity violations", candG, liveG)
			d.ModelVersion = p.reg.Publish(next)
			if p.cfg.PublishPath != "" {
				if err := checkpoint.SaveModel(p.cfg.PublishPath, cand); err != nil {
					// The swap already happened; publication failure only
					// affects the next restart. Journal it.
					p.transition(StateSwap, "publish after swap failed", map[string]any{"error": err.Error()})
				}
			}
		}
	}
	if d.Event == "swap" {
		p.transition(StateSwap, d.Reason, map[string]any{
			"model_version": d.ModelVersion, "shadow_rows": rows,
			"live_q": liveG, "cand_q": candG,
		})
	} else {
		p.transition(StateReject, d.Reason, map[string]any{
			"shadow_rows": rows, "live_q": liveG, "cand_q": candG,
			"mono_violations": d.MonoViolations,
		})
	}
	p.recordDecision(d)
	return true
}

// finishCycle clears staging, rests for the cooldown, and re-arms. The
// sample ring is reset too: post-decision traffic should describe the
// post-decision model.
func (p *Pilot) finishCycle() {
	p.cleanStaging()
	p.store.Reset()
	mSamples.Set(0)
	p.candEpochs.Store(0)
	p.transition(StateCooldown, "cycle complete", map[string]any{
		"cooldown_seconds": p.cfg.Cooldown.Seconds(),
	})
	if p.sleep(p.cfg.Cooldown) {
		p.transition(StateIdle, "cooldown elapsed; re-armed", nil)
	}
}

// cloneModel deep-copies a model through its gob round trip, detaching the
// candidate's weights from the live serving model.
func cloneModel(m *core.Model) (*core.Model, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, fmt.Errorf("autopilot: snapshot live model: %w", err)
	}
	c, err := core.Load(&buf)
	if err != nil {
		return nil, fmt.Errorf("autopilot: rebuild candidate: %w", err)
	}
	return c, nil
}
