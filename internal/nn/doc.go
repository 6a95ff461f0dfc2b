// Package nn is a from-scratch feedforward neural-network framework: dense
// layers, common activations, the Adam optimizer, regression and
// variational-auto-encoder losses, a bidirectional LSTM, and parameter /
// optimizer-state snapshots. It exists because the reproduced paper
// ("Monotonic Cardinality Estimation of Similarity Selection", SIGMOD 2020)
// trains FNN+VAE models (Sections 5–7) and no third-party DL framework is
// available; everything here uses only the standard library.
//
// The framework is batch-oriented: a batch is a tensor.Matrix with one row
// per example. Layers hold no training state, only their parameters: a
// training pass (Forward's train=true) records whatever Backward needs in a
// per-shard Ctx, and Backward accumulates parameter gradients into that
// context's buffers. Training therefore shares a layer through contexts — a
// sequential trainer runs one shard with one context, a data-parallel one a
// context per shard — and the trainer adds each context's gradients into
// Param.Grad (Ctx.AddGradsInto) before the optimizer steps and zeroes them.
// Param.Grad is allocated where training first needs it (NewAdam,
// Ctx.AddGradsInto), so a model loaded only to serve carries none.
// Inference (train=false) writes no state at all: concurrent
// Forward(nil, x, false) calls on a shared instance are safe, which is what
// lets one loaded model serve many requests at once.
//
// Persistence is split into two halves so callers can compose them: Snapshot
// (io.go) flattens parameter values for model files, and AdamState captures
// the optimizer moments so internal/checkpoint can freeze and resume a
// training run bit-identically.
package nn
