package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"cardnet/internal/bench"
	"cardnet/internal/core"
	"cardnet/internal/dataset"
	"cardnet/internal/tensor"
)

// TestTrainingDriverResumeIsBitIdentical runs -mode train and then -mode
// update through runTraining, each once straight through and once stopped
// after its first epoch (a cancelled context, which Config.Stop sees at that
// epoch boundary) and then resumed. The stopped run publishes nothing, and
// the resumed run publishes a model file byte-identical to the straight
// run's. Both modes end the training log with the train.metrics snapshot.
func TestTrainingDriverResumeIsBitIdentical(t *testing.T) {
	defer tensor.SetWorkers(tensor.Workers())
	spec := dataset.DefaultsByName()["HM-ImageNet"]
	opts := bench.Options{NOverride: 200, QueryFrac: 0.15, GridPoints: 8, TestPerQuery: 4,
		Quick: true, Seed: 3, SampleRatio: 0.1}
	b := bench.BuildSuite(spec, opts).Bundle
	spec.Seed += 31
	opts.Seed += 31
	b2 := bench.BuildSuite(spec, opts).Bundle

	cfg := core.DefaultConfig(b.TauMax)
	cfg.VAEHidden, cfg.VAELatent = []int{16}, 4
	cfg.PhiHidden, cfg.ZDim = []int{16}, 8
	cfg.VAEEpochs, cfg.Epochs = 2, 3
	cfg.Accel = true
	train := trainJob{phase: core.PhaseTrain, train: b.Train, valid: b.Valid,
		start: func() *core.Model { return core.New(cfg, b.Train.X.Cols) }}
	update := func(model string) trainJob {
		return trainJob{phase: core.PhaseIncremental, train: b2.Train, valid: b2.Valid,
			start: func() *core.Model { return load(model) }}
	}

	straight := filepath.Join(t.TempDir(), "m.gob")
	stopped := filepath.Join(t.TempDir(), "m.gob")
	settings := func(model string, resume bool) trainSettings {
		return trainSettings{dataset: "HM-ImageNet", model: model, ckptEvery: 1, ckptRetain: 3, workers: 1, resume: resume}
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	for _, step := range []struct {
		name     string
		straight trainJob
		stopped  trainJob
	}{
		{"train", train, train},
		{"update", update(straight), update(stopped)},
	} {
		if err := runTraining(context.Background(), step.straight, settings(straight, false)); err != nil {
			t.Fatalf("%s straight: %v", step.name, err)
		}
		before, _ := os.ReadFile(stopped) // the model the stopped run starts from, if any
		if err := runTraining(cancelled, step.stopped, settings(stopped, false)); !errors.Is(err, errInterrupted) {
			t.Fatalf("%s stopped after epoch 1: err = %v, want errInterrupted", step.name, err)
		}
		if after, _ := os.ReadFile(stopped); !bytes.Equal(before, after) {
			t.Fatalf("%s: the interrupted run published a model", step.name)
		}
		if err := runTraining(context.Background(), step.stopped, settings(stopped, true)); err != nil {
			t.Fatalf("%s resumed: %v", step.name, err)
		}
		want, err := os.ReadFile(straight)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(stopped)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: resumed model (%d bytes) differs from the straight run's (%d bytes)", step.name, len(got), len(want))
		}
		// Both modes end their training log with the metrics snapshot.
		trainLog, err := os.ReadFile(straight + ".train.jsonl")
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSpace(trainLog), []byte("\n"))
		if !bytes.Contains(lines[len(lines)-1], []byte(`"event":"train.metrics"`)) {
			t.Fatalf("%s: training log ends with %s, want the train.metrics snapshot", step.name, lines[len(lines)-1])
		}
	}
}

// TestResolveLog covers the flag resolution every JSONL log and -ckpt-dir
// go through: "off" disables, "" takes the flag's default, and anything else
// is the path.
func TestResolveLog(t *testing.T) {
	const model = "m.gob"
	for _, tc := range []struct {
		flag  string
		empty string // what "" resolves to
	}{
		{"trainlog", "m.gob.train.jsonl"},
		{"tracelog", ""},
		{"slolog", ""},
		{"autopilot-journal", "m.gob.autopilot.jsonl"},
		{"rollout-journal", ""},
		{"ckpt-dir", "m.gob.ckpt"},
	} {
		if got := resolveLog(tc.flag, "", model); got != tc.empty {
			t.Errorf("-%s \"\": got %q, want %q", tc.flag, got, tc.empty)
		}
		if got := resolveLog(tc.flag, "off", model); got != "" {
			t.Errorf("-%s off: got %q, want off", tc.flag, got)
		}
		if got := resolveLog(tc.flag, "x/y.jsonl", model); got != "x/y.jsonl" {
			t.Errorf("-%s x/y.jsonl: got %q", tc.flag, got)
		}
	}
}
