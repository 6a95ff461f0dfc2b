package baselines

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

// TestGoldenFitBits pins the trained parameter bits of one small fit of each
// nn-trained baseline (DL-DNN, DL-MoE, DL-BiLSTM), so a refactor of the nn
// training path that moves a single bit fails here.
func TestGoldenFitBits(t *testing.T) {
	if !goldenBitsPinned {
		t.Skip("golden bits are pinned on linux/amd64 at GOAMD64=v1 only: other targets may fuse multiply-add, so their trained bits differ")
	}
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)
	f := newFixture(t)
	fit := fitCfg{Epochs: 3, Batch: 64, LR: 1e-3, Seed: 1}

	dnn := NewDNN(12)
	dnn.Fit_ = fit
	dnn.Fit(f.train, f.valid)
	if got, want := paramsSHA256(dnn.mlp.Params()), "bbda589c7e33309c4abced9ea776b67a60ae81e3a7f209908e3ea61268954901"; got != want {
		t.Errorf("DL-DNN: params sha256 %s, want %s", got, want)
	}

	moe := NewMoE(12)
	moe.Fit_ = fit
	moe.Fit(f.train, f.valid)
	moeParams := moe.gate.Params()
	for _, ex := range moe.experts {
		moeParams = append(moeParams, ex.Params()...)
	}
	if got, want := paramsSHA256(moeParams), "1d0cf099015e8bd319ce49ad28304f3e4c474ea9524c4b6207459325cd216c29"; got != want {
		t.Errorf("DL-MoE: params sha256 %s, want %s", got, want)
	}

	queries, labels, tauTop, _ := bilstmFixture(t)
	bi := NewBiLSTM(tauTop)
	bi.Fit_.Epochs = 2
	bi.FitStrings(queries, labels, tauTop)
	biParams := append([]*nn.Param{bi.emb}, bi.rnn.Params()...)
	biParams = append(biParams, bi.head.Params()...)
	if got, want := paramsSHA256(biParams), "9699d67ed414474ae38c0831d047a87f5124b33880ec2384084124e106b56d36"; got != want {
		t.Errorf("DL-BiLSTM: params sha256 %s, want %s", got, want)
	}
}
