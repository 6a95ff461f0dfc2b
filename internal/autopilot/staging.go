package autopilot

import (
	"fmt"
	"os"
	"path/filepath"

	"cardnet/internal/checkpoint"
	"cardnet/internal/core"
)

// Resume phases, in pipeline order: detectStaging maps what the staging
// directory holds onto the furthest phase the previous process reached.
const (
	resumeNone     = iota // nothing staged: start idle
	resumeTraining        // train set staged (checkpoints optional): retrain
	resumeShadow          // trained candidate staged: straight to shadow
)

// Staging-directory layout. Everything the pilot needs to survive a death
// lives under Config.Dir:
//
//	<dir>/trainset.tset   — the labelled train/valid split (KindTrainSet)
//	<dir>/ckpt/           — trainer checkpoint store (KindTrainer frames)
//	<dir>/candidate.gob   — the trained candidate awaiting shadow (KindModel)
func (p *Pilot) tsetPath() string { return filepath.Join(p.cfg.Dir, "trainset.tset") }
func (p *Pilot) ckptDir() string  { return filepath.Join(p.cfg.Dir, "ckpt") }
func (p *Pilot) candPath() string { return filepath.Join(p.cfg.Dir, "candidate.gob") }

func ensureDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("autopilot: create staging dir: %w", err)
	}
	return nil
}

// detectStaging inspects the staging directory at Start and decides where the
// loop enters. A staged candidate resumes straight into shadow; a staged
// train set resumes training — from the latest usable trainer checkpoint when
// one exists, from scratch on the same staged data otherwise. Anything that
// no longer matches the live serving shape is discarded: the operator swapped
// in an incompatible model between runs, so the old cycle's work is moot.
func (p *Pilot) detectStaging() (cand *core.Model, st *core.TrainerState, train, valid *core.TrainSet, phase int) {
	live := p.reg.Current().Model

	if c, err := checkpoint.LoadModel(p.candPath()); err == nil {
		if c.InDim == live.InDim && c.Cfg.TauMax == live.Cfg.TauMax {
			p.noteResume("trained candidate staged; resuming into shadow evaluation", nil)
			return c, nil, nil, nil, resumeShadow
		}
		p.transition(StateIdle, "staged candidate incompatible with live model; discarding", map[string]any{
			"staged_in_dim": c.InDim, "live_in_dim": live.InDim,
		})
		p.cleanStaging()
		return nil, nil, nil, nil, resumeNone
	}

	tr, va, err := checkpoint.LoadTrainSet(p.tsetPath())
	if err != nil {
		// No (or corrupt) staged split: nothing to resume. Clear leftovers so
		// stale checkpoints cannot pair with a future, different split.
		p.cleanStaging()
		return nil, nil, nil, nil, resumeNone
	}
	if tr.X.Cols != live.InDim {
		p.transition(StateIdle, "staged train set incompatible with live model; discarding", map[string]any{
			"staged_in_dim": tr.X.Cols, "live_in_dim": live.InDim,
		})
		p.cleanStaging()
		return nil, nil, nil, nil, resumeNone
	}

	// Prefer the latest usable incremental-phase checkpoint; fall back to a
	// fresh retrain on the staged data when none decodes.
	if store, serr := checkpoint.OpenStore(p.ckptDir(), p.cfg.CkptRetain); serr == nil {
		if cst, _, _, lerr := checkpoint.LoadLatest(store); lerr == nil && cst != nil && cst.Phase == core.PhaseIncremental {
			p.noteResume("trainer checkpoint staged; resuming incremental retrain", map[string]any{
				"epoch": cst.Epoch,
			})
			return nil, cst, tr, va, resumeTraining
		}
	}
	p.noteResume("train set staged without usable checkpoint; retraining from staged data", nil)
	return nil, nil, tr, va, resumeTraining
}

// noteResume journals a resume decision and counts it.
func (p *Pilot) noteResume(reason string, fields map[string]any) {
	mResumes.Inc()
	p.resumes.Add(1)
	p.transition(p.State(), reason, fields)
}

// cleanStaging removes the split, checkpoints, and candidate of the finished
// (or abandoned) cycle. Removal failures are tolerable: a stale candidate is
// re-detected at next Start and rejected or re-evaluated, never silently
// served.
func (p *Pilot) cleanStaging() {
	os.Remove(p.tsetPath())
	os.Remove(p.candPath())
	os.RemoveAll(p.ckptDir())
}
