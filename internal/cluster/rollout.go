package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"cardnet/internal/obs"
)

// Rollout states, in lifecycle order. A rollout is terminal in ok,
// rolled-back, or failed; idle means none has run yet.
const (
	RolloutIdle       = "idle"
	RolloutCanary     = "canary"
	RolloutPromoting  = "promoting"
	RolloutOK         = "ok"
	RolloutRolledBack = "rolled-back"
	RolloutFailed     = "failed"
)

// ErrRolloutActive is returned by Start while a rollout is in flight.
var ErrRolloutActive = errors.New("cluster: rollout already in progress")

// RolloutConfig tunes the rolling-model-rollout controller. Zero values
// take the documented defaults.
type RolloutConfig struct {
	// Bake is how long the canary runs before the drift verdict
	// (default 30s).
	Bake time.Duration
	// Poll is the /drift polling spacing during the bake (default 2s,
	// capped at Bake).
	Poll time.Duration
	// MaxRegression is the tolerated canary q-error overshoot: the canary
	// EWMA may exceed the fleet EWMA by this fraction before the verdict is
	// a regression (default 0.25).
	MaxRegression float64
	// MinSamples is how many q-error samples the canary window must hold
	// before its EWMA is trusted for the comparison; below it the verdict
	// defaults to promote (default 1).
	MinSamples int
	// Journal receives one JSONL line per rollout decision (nil disables).
	Journal *obs.Sink
	// Client issues reload and drift requests; nil uses the shared obs
	// client (5s timeout) obs.GatherJSON defaults to.
	Client *http.Client
	// Registry receives rollout metrics (nil uses obs.Default).
	Registry *obs.Registry
}

// RolloutStatus is the machine-readable view of the current (or last)
// rollout, served by GET /admin/rollout and embedded in the router's
// /healthz.
type RolloutStatus struct {
	State         string   `json:"state"`
	Path          string   `json:"path,omitempty"`
	RollbackPath  string   `json:"rollback_path,omitempty"`
	Canary        string   `json:"canary,omitempty"`
	Promoted      []string `json:"promoted,omitempty"`
	CanaryQError  float64  `json:"canary_qerror"`
	FleetQError   float64  `json:"fleet_qerror"`
	CanarySamples int      `json:"canary_samples"`
	Error         string   `json:"error,omitempty"`
	TraceID       string   `json:"trace_id,omitempty"`
}

// Rollout coordinates rolling model swaps across the fleet: canary one
// replica via its /admin/reload hot swap, bake while comparing its /drift
// q-error window against the rest of the fleet, then promote
// replica-by-replica or roll the canary back. One rollout runs at a time;
// every decision is journaled.
type Rollout struct {
	cfg    RolloutConfig
	client *http.Client

	mu      sync.Mutex
	status  RolloutStatus
	running bool
	stop    chan struct{}
	wg      sync.WaitGroup

	mStarted    *obs.Counter
	mPromoted   *obs.Counter
	mRolledBack *obs.Counter
	mFailed     *obs.Counter
	mJournalErr *obs.Counter
}

// NewRollout builds an idle controller.
func NewRollout(cfg RolloutConfig) *Rollout {
	if cfg.Bake <= 0 {
		cfg.Bake = 30 * time.Second
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 2 * time.Second
	}
	if cfg.Poll > cfg.Bake {
		cfg.Poll = cfg.Bake
	}
	if cfg.MaxRegression <= 0 {
		cfg.MaxRegression = 0.25
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = 1
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default
	}
	return &Rollout{
		cfg:         cfg,
		client:      cfg.Client,
		status:      RolloutStatus{State: RolloutIdle},
		stop:        make(chan struct{}),
		mStarted:    reg.Counter("cluster.rollout.started"),
		mPromoted:   reg.Counter("cluster.rollout.promoted"),
		mRolledBack: reg.Counter("cluster.rollout.rolledback"),
		mFailed:     reg.Counter("cluster.rollout.failed"),
		mJournalErr: reg.Counter("cluster.rollout.journal_errors"),
	}
}

// Status returns a copy of the current rollout view.
func (ro *Rollout) Status() RolloutStatus {
	ro.mu.Lock()
	defer ro.mu.Unlock()
	st := ro.status
	st.Promoted = append([]string(nil), ro.status.Promoted...)
	return st
}

// Start launches a rollout of the model file at path in the background.
// healthy supplies the replica set (the prober's current view, re-read at
// promote time so a replica ejected mid-bake is skipped). rollbackPath is
// the model restored onto the canary on a regression verdict ("" = leave
// the canary on the new model but report rolled-back with an error note).
// Returns ErrRolloutActive while a rollout is in flight and ErrNoReplicas
// when healthy() is empty.
func (ro *Rollout) Start(path, rollbackPath string, healthy func() []string) error {
	replicas := healthy()
	if len(replicas) == 0 {
		return ErrNoReplicas
	}
	ro.mu.Lock()
	if ro.running {
		ro.mu.Unlock()
		return ErrRolloutActive
	}
	ro.running = true
	sort.Strings(replicas)
	ro.status = RolloutStatus{
		State:        RolloutCanary,
		Path:         path,
		RollbackPath: rollbackPath,
		Canary:       replicas[0],
		TraceID:      obs.NewTraceID(),
	}
	ro.mu.Unlock()
	ro.mStarted.Inc()
	ro.wg.Add(1)
	go func() {
		defer ro.wg.Done()
		ro.run(path, rollbackPath, replicas[0], healthy)
		ro.mu.Lock()
		ro.running = false
		ro.mu.Unlock()
	}()
	return nil
}

// Stop aborts an in-flight bake wait and blocks until the rollout
// goroutine exits. A stopped controller cannot start further rollouts.
func (ro *Rollout) Stop() {
	ro.mu.Lock()
	select {
	case <-ro.stop:
	default:
		close(ro.stop)
	}
	ro.mu.Unlock()
	ro.wg.Wait()
}

// Wait blocks until the in-flight rollout (if any) reaches a terminal
// state. Tests and benchmarks use it instead of polling Status.
func (ro *Rollout) Wait() { ro.wg.Wait() }

// run is the rollout state machine: canary -> bake -> verdict ->
// promote | rollback.
func (ro *Rollout) run(path, rollbackPath, canary string, healthy func() []string) {
	ctx := context.Background()
	ro.journal("rollout.start", map[string]any{"path": path, "canary": canary, "bake_ms": ro.cfg.Bake.Milliseconds()})

	if err := ro.reload(ctx, canary, path); err != nil {
		ro.fail(fmt.Sprintf("canary reload: %v", err))
		return
	}
	ro.journal("rollout.canary", map[string]any{"replica": canary, "path": path})

	canaryQ, fleetQ, samples, driftStatus, aborted := ro.bake(canary, healthy)
	ro.mu.Lock()
	ro.status.CanaryQError = canaryQ
	ro.status.FleetQError = fleetQ
	ro.status.CanarySamples = samples
	ro.mu.Unlock()
	if aborted {
		ro.fail("aborted during bake")
		return
	}

	if ro.regressed(canaryQ, fleetQ, samples, driftStatus) {
		ro.journal("rollout.rollback", map[string]any{
			"replica": canary, "canary_qerror": canaryQ, "fleet_qerror": fleetQ,
			"canary_samples": samples, "canary_drift": driftStatus, "rollback_path": rollbackPath,
		})
		if rollbackPath != "" {
			if err := ro.reload(ctx, canary, rollbackPath); err != nil {
				ro.fail(fmt.Sprintf("rollback reload: %v", err))
				return
			}
		}
		ro.setState(RolloutRolledBack, "")
		if rollbackPath == "" {
			ro.setState(RolloutRolledBack, "no rollback_path: canary left on regressed model")
		}
		ro.mRolledBack.Inc()
		ro.journal("rollout.done", map[string]any{"state": RolloutRolledBack})
		return
	}

	ro.setState(RolloutPromoting, "")
	for _, r := range healthy() {
		if r == canary {
			continue
		}
		if err := ro.reload(ctx, r, path); err != nil {
			ro.journal("rollout.promote_failed", map[string]any{"replica": r, "error": err.Error()})
			ro.fail(fmt.Sprintf("promote %s: %v", r, err))
			return
		}
		ro.mu.Lock()
		ro.status.Promoted = append(ro.status.Promoted, r)
		ro.mu.Unlock()
		ro.journal("rollout.promote", map[string]any{"replica": r, "path": path})
	}
	ro.setState(RolloutOK, "")
	ro.mPromoted.Inc()
	ro.journal("rollout.done", map[string]any{
		"state": RolloutOK, "canary_qerror": canaryQ, "fleet_qerror": fleetQ, "canary_samples": samples,
	})
}

// bake polls every healthy replica's /drift until the bake period elapses
// (or Stop aborts it) and returns the final canary EWMA, the fleet median
// EWMA over the other replicas, the canary's sample count and drift status.
func (ro *Rollout) bake(canary string, healthy func() []string) (canaryQ, fleetQ float64, samples int, driftStatus string, aborted bool) {
	deadline := time.After(ro.cfg.Bake)
	tick := time.NewTicker(ro.cfg.Poll)
	defer tick.Stop()
	poll := func() {
		canaryQ, fleetQ, samples, driftStatus = ro.pollDrift(canary, healthy())
		ro.mu.Lock()
		ro.status.CanaryQError = canaryQ
		ro.status.FleetQError = fleetQ
		ro.status.CanarySamples = samples
		ro.mu.Unlock()
	}
	for {
		select {
		case <-ro.stop:
			return canaryQ, fleetQ, samples, driftStatus, true
		case <-tick.C:
			poll()
		case <-deadline:
			poll()
			return canaryQ, fleetQ, samples, driftStatus, false
		}
	}
}

// pollDrift fetches /drift from the canary and the rest of the fleet and
// condenses the comparison inputs.
func (ro *Rollout) pollDrift(canary string, replicas []string) (canaryQ, fleetQ float64, samples int, driftStatus string) {
	urls := make([]string, 0, len(replicas)+1)
	urls = append(urls, canary+"/drift")
	for _, r := range replicas {
		if r != canary {
			urls = append(urls, r+"/drift")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), ro.cfg.Poll)
	snaps := obs.GatherJSON(ctx, ro.client, urls)
	cancel()
	if snaps[0].Err == nil {
		canaryQ, _ = snaps[0].Doc["qerror_ewma"].(float64)
		if s, ok := snaps[0].Doc["samples"].(float64); ok {
			samples = int(s)
		}
		driftStatus = jsonString(snaps[0].Doc, "status")
	}
	var fleet []float64
	for _, s := range snaps[1:] {
		if s.Err != nil {
			continue
		}
		if q, ok := s.Doc["qerror_ewma"].(float64); ok {
			fleet = append(fleet, q)
		}
	}
	fleetQ = median(fleet)
	return canaryQ, fleetQ, samples, driftStatus
}

// regressed is the bake verdict: the canary regresses when its q-error
// window is trustworthy (>= MinSamples) and either its EWMA overshoots the
// fleet median by more than MaxRegression, or its own drift monitor already
// recommends retraining. An idle fleet (no q-error evidence anywhere)
// promotes — there is nothing to compare against.
func (ro *Rollout) regressed(canaryQ, fleetQ float64, samples int, driftStatus string) bool {
	if samples < ro.cfg.MinSamples {
		return false
	}
	if driftStatus == "retrain-recommended" {
		return true
	}
	if fleetQ <= 0 {
		return false
	}
	return canaryQ > fleetQ*(1+ro.cfg.MaxRegression)
}

// median returns the middle value of vs (mean of the middle two for even
// lengths), 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	mid := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[mid]
	}
	return (vs[mid-1] + vs[mid]) / 2
}

// reload hot-swaps one replica's model via its /admin/reload endpoint.
func (ro *Rollout) reload(ctx context.Context, base, path string) error {
	body, _ := json.Marshal(map[string]string{"path": path})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/admin/reload", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	client := ro.client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("reload %s: status %d: %s", base, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return nil
}

// fail moves the rollout to the failed state.
func (ro *Rollout) fail(msg string) {
	ro.setState(RolloutFailed, msg)
	ro.mFailed.Inc()
	ro.journal("rollout.failed", map[string]any{"error": msg})
}

// setState updates the state and error note under the lock.
func (ro *Rollout) setState(state, errMsg string) {
	ro.mu.Lock()
	ro.status.State = state
	ro.status.Error = errMsg
	ro.mu.Unlock()
}

// journal appends one decision line to the JSONL journal, counting (not
// propagating) write failures: a full disk must not wedge a rollout. Every
// line carries the rollout's trace ID so the decision sequence of one
// rollout greps/joins as a unit alongside request traces.
func (ro *Rollout) journal(event string, fields map[string]any) {
	if ro.cfg.Journal == nil {
		return
	}
	ro.mu.Lock()
	tid := ro.status.TraceID
	ro.mu.Unlock()
	if tid != "" {
		withTrace := make(map[string]any, len(fields)+1)
		for k, v := range fields {
			withTrace[k] = v
		}
		withTrace["trace_id"] = tid
		fields = withTrace
	}
	if err := ro.cfg.Journal.Emit(event, fields); err != nil {
		ro.mJournalErr.Inc()
	}
}
