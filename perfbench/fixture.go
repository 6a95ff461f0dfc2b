package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cardnet/internal/checkpoint"
	"cardnet/internal/core"
	"cardnet/internal/dataset"
	"cardnet/internal/dist"
	"cardnet/internal/feature"
	"cardnet/internal/simselect"
	"cardnet/internal/tensor"
)

// Fixture shape: HM-ImageNet at 4000 records of 64 bits, θmax = τmax = 20,
// and CardNet-A at paper width with a capped epoch budget.
const (
	fixtureDataset = "HM-ImageNet"
	fixtureN       = 4000
	fixtureTauMax  = 20
	vaeLatent      = 16
	fixtureEpochs  = 6
	fixtureVAE     = 2
	queryFrac      = 0.10 // share of the dataset sampled as the training workload
	gridPoints     = 20
	insertPoolN    = 10000 // fresh records the update stream may insert
	freshN         = 60000
)

// fixture is everything the workloads share: the dataset, fresh queries that
// are never in it, the labelled training workload, and the trained model.
type fixture struct {
	spec    dataset.Spec
	records []dist.BitVector // the live dataset
	pool    []dist.BitVector // insert pool for the update stream
	fresh   []dist.BitVector // distinct queries in neither records nor pool
	ext     *feature.HammingExtractor
	grid    []float64

	trainQ, validQ []dist.BitVector
	train, valid   *core.TrainSet

	model     *core.Model
	validMSLE float64
	trainSecs float64
	modelPath string
	modelHash string
	cached    bool // trained by an earlier run of the same source
}

// buildFixture generates the data and trains the model. Queries and
// training use the dataset spec's own seed, so every workload seed shares
// one model: across training seeds the fixture's q-error p99 moves by half
// (22 to 49 on seeds 1-5), far more than any bound a regression check could
// use. Training is single-worker and so bit-reproducible; the trained model
// is kept under dir, which the caller names after the source under test.
func buildFixture(dir string) (*fixture, error) {
	spec, ok := dataset.DefaultsByName()[fixtureDataset]
	if !ok {
		return nil, fmt.Errorf("dataset %s missing from the registry", fixtureDataset)
	}
	spec.N = fixtureN
	// BinaryCodes is prefix-stable: the first N codes are exactly the
	// dataset, and the codes past them share its prototypes.
	all := dataset.BinaryCodes(spec.N+insertPoolN+freshN, spec.Dim, spec.Clusters, spec.Flip, spec.Seed)
	f := &fixture{
		spec:    spec,
		records: all[:spec.N],
		pool:    all[spec.N : spec.N+insertPoolN],
		ext:     feature.NewHammingExtractor(spec.Dim, int(spec.ThetaMax), fixtureTauMax),
		grid:    dataset.ThresholdGrid(spec.ThetaMax, gridPoints),
	}
	seen := map[string]bool{}
	for _, r := range all[:spec.N+insertPoolN] {
		seen[bitKey(r)] = true
	}
	for _, r := range all[spec.N+insertPoolN:] {
		if k := bitKey(r); !seen[k] {
			seen[k] = true
			f.fresh = append(f.fresh, r)
		}
	}

	split := dataset.SplitWorkload(dataset.SampleUniform(spec.N, queryFrac, spec.Seed), spec.Seed+1)
	for _, i := range split.Train {
		f.trainQ = append(f.trainQ, f.records[i])
	}
	for _, i := range split.Valid {
		f.validQ = append(f.validQ, f.records[i])
	}
	var err error
	if f.train, f.valid, err = f.label(f.records); err != nil {
		return nil, err
	}
	tensor.SetWorkers(1)
	f.modelPath = filepath.Join(dir, "model.gob")
	if err := f.loadOrTrain(filepath.Join(dir, "model.json")); err != nil {
		return nil, err
	}
	if f.modelHash, err = fileHash(f.modelPath); err != nil {
		return nil, err
	}
	return f, nil
}

// fixtureMeta is what training reports besides the weights.
type fixtureMeta struct {
	ValidMSLE float64 `json:"valid_msle"`
	TrainSecs float64 `json:"train_s"`
}

// loadOrTrain loads the model a previous run of the same source trained, or
// trains it and saves it with its meta file written last.
func (f *fixture) loadOrTrain(metaPath string) error {
	if b, err := os.ReadFile(metaPath); err == nil {
		var meta fixtureMeta
		if err := json.Unmarshal(b, &meta); err != nil {
			return fmt.Errorf("fixture meta: %w", err)
		}
		if f.model, err = checkpoint.LoadModel(f.modelPath); err != nil {
			return fmt.Errorf("load fixture model: %w", err)
		}
		f.validMSLE, f.trainSecs, f.cached = meta.ValidMSLE, meta.TrainSecs, true
		return nil
	}
	cfg := core.PaperConfig(fixtureTauMax, vaeLatent)
	cfg.Accel = true
	cfg.Epochs = fixtureEpochs
	cfg.VAEEpochs = fixtureVAE
	cfg.Workers = 1
	cfg.Seed = f.spec.Seed
	start := time.Now()
	f.model = core.New(cfg, f.ext.Dim())
	res := f.model.Train(f.train, f.valid)
	f.trainSecs = time.Since(start).Seconds()
	f.validMSLE = res.BestValidMSLE
	if err := os.MkdirAll(filepath.Dir(f.modelPath), 0o755); err != nil {
		return err
	}
	if err := checkpoint.SaveModel(f.modelPath, f.model); err != nil {
		return fmt.Errorf("save fixture model: %w", err)
	}
	meta, _ := json.Marshal(fixtureMeta{ValidMSLE: f.validMSLE, TrainSecs: f.trainSecs})
	if err := os.WriteFile(metaPath+".tmp", meta, 0o644); err != nil {
		return fmt.Errorf("save fixture meta: %w", err)
	}
	return os.Rename(metaPath+".tmp", metaPath)
}

// label relabels the training and validation queries against recs with the
// exact Hamming oracle: one index build plus CountAtEach per query.
func (f *fixture) label(recs []dist.BitVector) (train, valid *core.TrainSet, err error) {
	ix := simselect.NewHammingIndex(recs)
	maxTheta := int(f.spec.ThetaMax)
	counts := func(q dist.BitVector, g []float64) []int {
		cum := ix.CountAtEach(q, maxTheta)
		out := make([]int, len(g))
		for i, theta := range g {
			out[i] = cum[int(theta)]
		}
		return out
	}
	if train, err = core.BuildTrainSet[dist.BitVector](f.ext, f.trainQ, f.grid, counts); err != nil {
		return nil, nil, fmt.Errorf("label train: %w", err)
	}
	if valid, err = core.BuildTrainSet[dist.BitVector](f.ext, f.validQ, f.grid, counts); err != nil {
		return nil, nil, fmt.Errorf("label valid: %w", err)
	}
	return train, valid, nil
}

func bitKey(v dist.BitVector) string {
	return fmt.Sprint(v.Bits)
}

func fileHash(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("hash %s: %w", path, err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}
