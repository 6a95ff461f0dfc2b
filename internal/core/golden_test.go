package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"cardnet/internal/nn"
	"cardnet/internal/tensor"
)

// paramsSHA256 hashes the raw bits of every parameter value in order.
func paramsSHA256(params []*nn.Param) string {
	h := sha256.New()
	var buf [8]byte
	for _, p := range params {
		for _, v := range p.Value {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenTrainBits pins the trained parameter bits of small models across
// code changes: Train, then an IncrementalTrain forced to run (previous MSLE
// 0). The determinism tests only compare runs of one build against each
// other; this one catches any refactor that moves a single trained bit of
// the sequential (Workers = 1) or the sharded trainer.
func TestGoldenTrainBits(t *testing.T) {
	if !goldenBitsPinned {
		t.Skip("golden bits are pinned on linux/amd64 at GOAMD64=v1 only: other targets may fuse multiply-add, so their trained bits differ")
	}
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)
	cases := []struct {
		name            string
		accel           bool
		latent, workers int
		train, incr     string
	}{
		{"standard/vae", false, 6, 1,
			"7598173f869569f7292e95d62da6698ac2ff30d78eeaff2255892a109be43761",
			"6714bac11bb4bf0a399e99c92c68dfe639937e11cdc4ca39af06bd43b3cd5790"},
		{"standard/novae", false, 0, 1,
			"d68b832dd3509cebfe523c4e2042580b46cce79ab406e3366a39195075e13867",
			"f82ca3b69166244cc5f95952475b88aad196bd49a2f91acf39dd7549aaf8c2f2"},
		{"accel/vae", true, 6, 1,
			"7bed1b31c1ce00f63358588046d9eacabc4b079ab5b9dd4478892afd3ab7ed1b",
			"d1dd269d915b0ca2bcff3107085242f96062070653e6cc952f4ff68013554f78"},
		{"accel/novae", true, 0, 1,
			"d57317ab42587cd89ae05356c53c3fdc1a01a52194f64e324bf731719743acc2",
			"19bf230fbc710174447a2a7244a7a70d4d526db3f475b6f3cf24b25d79739d00"},
		{"accel/vae/workers2", true, 6, 2,
			"0de9a7da9beb74105231628cc63982705d6fc24409b25a5437701a2faf6d97f9",
			"80b02730ac153568721192413a6d0ff1a36c25ad8beac47544c1a2ae33802958"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			train, valid, _, _ := hammingFixture(t, 120)
			cfg := tinyConfig(12, c.accel)
			cfg.VAELatent = c.latent
			cfg.Epochs = 3
			cfg.Seed = 42
			cfg.Workers = c.workers
			m := New(cfg, train.X.Cols)
			m.Train(train, valid)
			if got := paramsSHA256(m.Params()); got != c.train {
				t.Errorf("Train: params sha256 %s, want %s", got, c.train)
			}
			m.IncrementalTrain(train, valid, 0)
			if got := paramsSHA256(m.Params()); got != c.incr {
				t.Errorf("IncrementalTrain: params sha256 %s, want %s", got, c.incr)
			}
		})
	}
}
