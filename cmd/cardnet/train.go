package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"cardnet/internal/checkpoint"
	"cardnet/internal/core"
	"cardnet/internal/obs"
	"cardnet/internal/tensor"
)

// trainJob is what -mode train or -mode update hands the training driver:
// the checkpoint phase it trains and resumes, its data, and the model a run
// without -resume starts from.
type trainJob struct {
	phase        string // core.PhaseTrain or core.PhaseIncremental
	train, valid *core.TrainSet
	start        func() *core.Model
}

// trainSettings carries the train/update flag values into runTraining.
type trainSettings struct {
	dataset    string // names the dataset in the training log
	model      string // -model: where the finished model is published
	trainLog   string
	ckptDir    string
	ckptEvery  int
	ckptRetain int
	workers    int // training shards of a fresh run; a resumed run keeps its checkpoint's
	resume     bool
}

// errInterrupted reports a run stopped at an epoch boundary before it
// finished: its model is not published, and -resume continues it.
var errInterrupted = errors.New("training interrupted")

// runTraining is the one driver of -mode train and -mode update, fresh or
// resumed. It opens the training log, attaches the checkpointer, runs the
// job's phase, reports checkpoint errors, writes the final train.metrics
// snapshot, and publishes the model atomically. When ctx ends or
// SIGINT/SIGTERM arrives first, the run stops at the next epoch boundary
// with that epoch checkpointed, publishes nothing and returns errInterrupted.
func runTraining(ctx context.Context, j trainJob, ts trainSettings) error {
	var lg logs
	sink := lg.open("trainlog", ts.trainLog, ts.model)
	var hook core.TrainHook
	if sink != nil {
		hook = trainLogHook(sink, ts.dataset)
	}
	ckDir := resolveLog("ckpt-dir", ts.ckptDir, ts.model)

	var m *core.Model
	var st *core.TrainerState
	if ts.resume {
		st = loadLatestState(requireStore(ckDir, ts.ckptRetain, modeOf(j.phase)), j.phase)
		var err error
		if m, err = core.RestoreTrainer(st); err != nil {
			return fmt.Errorf("resume: %w", err)
		}
	} else {
		m = j.start()
		m.Cfg.Workers = ts.workers
		if m.Cfg.Workers < 1 {
			m.Cfg.Workers = runtime.NumCPU() // -workers 0: every core
		}
	}
	tensor.SetWorkers(m.Cfg.Workers)
	m.Cfg.Hook = hook
	ck, release := attachCheckpointer(ctx, &m.Cfg, ckDir, ts.ckptEvery, ts.ckptRetain)
	defer release()

	epochs, interrupted, err := j.run(m, st)
	if err != nil {
		return fmt.Errorf("resume: %w", err)
	}
	if ck != nil && ck.Err() != nil {
		// A hook cannot abort training, so a failed checkpoint write
		// surfaces here.
		log.Printf("warning: checkpoint write failed: %v", ck.Err())
	}
	if sink != nil {
		err = sink.EmitSnapshot("train.metrics", obs.Default)
	}
	if err = errors.Join(err, lg.close()); err != nil {
		return fmt.Errorf("training log: %w", err)
	}
	if interrupted {
		log.Printf("interrupted at epoch %d; model not published — rerun with -resume to continue from %s", epochs, ckDir)
		return errInterrupted
	}
	if err := checkpoint.SaveModel(ts.model, m); err != nil {
		return fmt.Errorf("save model: %w", err)
	}
	log.Printf("saved to %s", ts.model)
	return nil
}

// run calls the job phase's core entry point, fresh (st nil) or resumed
// from st, and logs the outcome.
func (j trainJob) run(m *core.Model, st *core.TrainerState) (epochs int, interrupted bool, err error) {
	if j.phase == core.PhaseIncremental {
		var r core.IncrementalResult
		if st == nil {
			r = m.IncrementalTrain(j.train, j.valid, 0)
		} else if r, err = m.ResumeIncrementalTrain(j.train, j.valid, st); err != nil {
			return 0, false, err
		}
		log.Printf("incremental learning: %d epochs, validation MSLE %.4f (skipped=%v)", r.Epochs, r.ValidMSLE, r.Skipped)
		return r.Epochs, r.Interrupted, nil
	}
	var r core.TrainResult
	if st == nil {
		r = m.Train(j.train, j.valid)
	} else if r, err = m.ResumeTrain(j.train, j.valid, st); err != nil {
		return 0, false, err
	}
	log.Printf("trained %d epochs, best validation MSLE %.4f, model %d KB", r.Epochs, r.BestValidMSLE, m.SizeBytes()/1024)
	return r.Epochs, r.Interrupted, nil
}

// modeOf names the -mode that trains and resumes a checkpoint phase.
func modeOf(phase string) string {
	if phase == core.PhaseIncremental {
		return "update"
	}
	return "train"
}

// requireStore opens the checkpoint store for a -resume run, failing with a
// usage hint when checkpointing is disabled.
func requireStore(dir string, retain int, mode string) *checkpoint.Store {
	if dir == "" {
		log.Fatalf("%s: -resume needs checkpointing (-ckpt-dir must not be off)", mode)
	}
	store, err := checkpoint.OpenStore(dir, retain)
	if err != nil {
		log.Fatalf("open checkpoint store: %v", err)
	}
	return store
}

// loadLatestState loads the newest usable checkpoint from a store, logging
// any newer files skipped as corrupt, and verifies it belongs to the phase
// being resumed ("train" checkpoints resume with -mode train, "incremental"
// ones with -mode update).
func loadLatestState(store *checkpoint.Store, phase string) *core.TrainerState {
	st, seq, skipped, err := checkpoint.LoadLatest(store)
	if err != nil {
		log.Fatalf("resume: %v", err)
	}
	for _, s := range skipped {
		log.Printf("resume: checkpoint %d is corrupt or unreadable, falling back", s)
	}
	if st.Phase != phase {
		log.Fatalf("resume: checkpoint %d in %s is from a %q run — resume it with -mode %s", seq, store.Dir(), st.Phase, modeOf(st.Phase))
	}
	log.Printf("resume: continuing from checkpoint %d (epoch %d) in %s", seq, st.Epoch, store.Dir())
	return st
}

// attachCheckpointer wires durable checkpointing and graceful stopping into
// a training config: the returned Checkpointer persists state through
// cfg.Hook (after the hook already there) every `every` epochs. Once ctx
// ends or the first SIGINT/SIGTERM arrives, the next epoch's hook requests
// a stop, so that epoch is checkpointed and cfg.Stop ends the run there; a
// second signal kills the process (resume then loses at most the in-flight
// epoch). The returned func releases the signal handler. With dir ""
// (-ckpt-dir off) nothing is attached and a signal kills at once.
func attachCheckpointer(ctx context.Context, cfg *core.Config, dir string, every, retain int) (*checkpoint.Checkpointer, func()) {
	if dir == "" {
		return nil, func() {}
	}
	store, err := checkpoint.OpenStore(dir, retain)
	if err != nil {
		log.Fatalf("open checkpoint store: %v", err)
	}
	ck := checkpoint.NewCheckpointer(store, every)
	ctx, stopSignals := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	stopLog := context.AfterFunc(ctx, func() {
		stopSignals() // the next signal takes the default action
		log.Printf("stopping at the next epoch boundary (signal again to kill)")
	})
	next := cfg.Hook
	cfg.Hook = ck.Hook(func(ev core.TrainEvent) {
		if ctx.Err() != nil {
			ck.RequestStop()
		}
		if next != nil {
			next(ev)
		}
	})
	cfg.Stop = ck.StopRequested
	log.Printf("checkpointing to %s every %d epoch(s), retaining %d", dir, every, retain)
	return ck, func() {
		stopLog()
		stopSignals()
	}
}

// trainLogHook adapts a JSONL sink to the core.TrainHook contract: one
// "epoch" event per line with the losses, ω weights, and timing.
func trainLogHook(sink *obs.Sink, ds string) core.TrainHook {
	return func(ev core.TrainEvent) {
		fields := map[string]any{
			"dataset":    ds,
			"phase":      ev.Phase,
			"epoch":      ev.Epoch,
			"train_loss": ev.TrainLoss,
			"lr":         ev.LR,
			"epoch_ms":   float64(ev.EpochTime.Microseconds()) / 1e3,
		}
		if ev.HasValid {
			fields["valid_msle"] = ev.ValidMSLE
			fields["best_msle"] = ev.BestMSLE
			fields["improved"] = ev.Improved
			fields["early_stop"] = ev.EarlyStop
			fields["omega"] = ev.Omega
		}
		if err := sink.Emit("epoch", fields); err != nil {
			log.Fatalf("write training log: %v", err)
		}
	}
}
