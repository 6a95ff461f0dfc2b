package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"cardnet/internal/nn"
	"cardnet/internal/obs"
	"cardnet/internal/tensor"
)

// Estimation- and training-path metrics, registered on obs.Default so the
// bench harness and `cardnet serve` /metrics expose them without extra
// plumbing.
var (
	estBatchLatency = obs.Default.Histogram("core.estimate_batch.seconds", obs.TimeBuckets())
	estBatchCalls   = obs.Default.Counter("core.estimate_batch.calls")
	estBatchRows    = obs.Default.Counter("core.estimate_batch.rows")
	monoChecks      = obs.Default.Counter("core.estimate.mono.checks")
	monoViolate     = obs.Default.Counter("core.estimate.mono.violations")
	estSeq          atomic.Uint64

	trainEpochTime = obs.Default.Histogram("core.train.epoch_seconds", obs.TimeBuckets())
	trainEpochs    = obs.Default.Counter("core.train.epochs")
	trainValidMSLE = obs.Default.Gauge("core.train.valid_msle")
)

// monoSampleEvery sets the monotonicity spot-check rate of the nn reference
// forward: one in every monoSampleEvery EstimateAllTausBatch calls
// re-validates the Lemma 2 invariant on the decoder outputs.
const monoSampleEvery = 64

// Model is a trained (or trainable) CardNet / CardNet-A regressor over
// binary feature vectors of a fixed dimensionality.
type Model struct {
	Cfg    Config
	InDim  int
	TauTop int // largest τ seen in training

	vae   *nn.VAE
	emb   *nn.Param      // E, (TauMax+1)·EmbDim, column i = distance embedding eᵢ
	phi   *nn.Sequential // standard shared encoder
	accel *accelEncoder  // fused encoder for CardNet-A
	decW  *nn.Param      // (TauMax+1)·ZDim decoder weights
	decB  *nn.Param      // TauMax+1 decoder biases
}

// New constructs an untrained model for inDim-bit feature vectors, its
// weights drawn from an RNG seeded with cfg.Seed.
func New(cfg Config, inDim int) *Model {
	return build(cfg, inDim, rand.New(rand.NewSource(cfg.Seed)))
}

// build allocates the architecture and draws its initial weights from rng.
// A nil rng draws nothing and leaves every parameter zero, for restore to
// fill from a snapshot.
func build(cfg Config, inDim int, rng *rand.Rand) *Model {
	m := &Model{Cfg: cfg, InDim: inDim, TauTop: cfg.TauMax}
	if cfg.VAELatent > 0 {
		m.vae = nn.NewVAE(rng, inDim, cfg.VAEHidden, cfg.VAELatent)
	}
	tauCount := cfg.TauMax + 1
	m.emb = &nn.Param{Name: "E", Value: make([]float64, tauCount*cfg.EmbDim)}
	if rng != nil {
		tensor.RandNormal(rng, m.emb.Value, 0, 1) // E initialized from N(0,1), Section 5.2.2
	}

	xpDim := inDim + cfg.VAELatent
	if cfg.Accel {
		m.accel = newAccelEncoder(rng, xpDim, cfg.PhiHidden, cfg.ZDim, tauCount)
	} else {
		dims := append([]int{xpDim + cfg.EmbDim}, cfg.PhiHidden...)
		dims = append(dims, cfg.ZDim)
		m.phi = nn.NewMLP(rng, dims, nn.ReLU, nn.ReLU)
	}
	m.decW = &nn.Param{Name: "decW", Value: make([]float64, tauCount*cfg.ZDim)}
	if rng != nil {
		tensor.GlorotUniform(rng, m.decW.Value, cfg.ZDim, 1)
	}
	m.decB = &nn.Param{Name: "decB", Value: make([]float64, tauCount)}
	return m
}

// Params returns every learnable parameter of the model.
func (m *Model) Params() []*nn.Param {
	var ps []*nn.Param
	if m.vae != nil {
		ps = m.vae.Params()
	}
	ps = append(ps, m.emb)
	if m.Cfg.Accel {
		ps = append(ps, m.accel.Params()...)
	} else {
		ps = append(ps, m.phi.Params()...)
	}
	return append(ps, m.decW, m.decB)
}

// SizeBytes reports the serialized parameter size (paper Table 9).
func (m *Model) SizeBytes() int { return nn.ParamBytes(m.Params()) }

// tauCount is the number of decoders.
func (m *Model) tauCount() int { return m.Cfg.TauMax + 1 }

// embedding returns distance embedding eᵢ.
func (m *Model) embedding(i int) []float64 {
	return m.emb.Value[i*m.Cfg.EmbDim : (i+1)*m.Cfg.EmbDim]
}

// fwd carries the tensors of one forward pass over a batch of queries.
type fwd struct {
	x      *tensor.Matrix // B × InDim inputs
	vaeOut *nn.VAEOutput  // nil in deterministic mode
	xp     *tensor.Matrix // B × (InDim+Latent) concatenated x′
	z      *tensor.Matrix // B·tauCount × ZDim embeddings
	pre    *tensor.Matrix // B × tauCount decoder pre-activations
	c      *tensor.Matrix // B × tauCount per-distance predictions ĉᵢ
}

// forward runs the encoder and decoders. train selects the stochastic VAE
// path (reparameterized latent) and keeps activation caches in ctx;
// inference uses the deterministic mean latent so the model satisfies
// Lemma 2's determinism requirement, and writes no training state. Training
// shards running concurrently over one model must each bring their own ctx
// and rng.
func (m *Model) forward(ctx *nn.Ctx, x *tensor.Matrix, train bool, rng *rand.Rand) *fwd {
	f := &fwd{x: x}
	b := x.Rows
	if m.vae == nil {
		// VAE-ablated variant: x′ is the raw binary vector.
		f.xp = x
	} else {
		var latent *tensor.Matrix
		if train {
			f.vaeOut = m.vae.ForwardTrain(ctx, x, rng)
			latent = f.vaeOut.Z
		} else {
			latent = m.vae.Mean(x)
		}
		f.xp = tensor.NewMatrix(b, m.InDim+m.Cfg.VAELatent)
		for e := 0; e < b; e++ {
			copy(f.xp.Row(e)[:m.InDim], x.Row(e))
			copy(f.xp.Row(e)[m.InDim:], latent.Row(e))
		}
	}

	t := m.tauCount()
	if m.Cfg.Accel {
		f.z = m.accel.Forward(ctx, f.xp, train)
	} else {
		in := tensor.NewMatrix(b*t, f.xp.Cols+m.Cfg.EmbDim)
		for e := 0; e < b; e++ {
			for i := 0; i < t; i++ {
				row := in.Row(e*t + i)
				copy(row[:f.xp.Cols], f.xp.Row(e))
				copy(row[f.xp.Cols:], m.embedding(i))
			}
		}
		f.z = m.phi.Forward(ctx, in, train)
	}

	// Decoders: ĉᵢ = ReLU(wᵢᵀ·zᵢ + bᵢ).
	f.pre = tensor.NewMatrix(b, t)
	f.c = tensor.NewMatrix(b, t)
	for e := 0; e < b; e++ {
		for i := 0; i < t; i++ {
			w := m.decW.Value[i*m.Cfg.ZDim : (i+1)*m.Cfg.ZDim]
			v := tensor.Dot(w, f.z.Row(e*t+i)) + m.decB.Value[i]
			f.pre.Set(e, i, v)
			if v > 0 {
				f.c.Set(e, i, v)
			}
		}
	}
	return f
}

// backward pushes dL/dĉ (B × tauCount) through decoders, encoder, and VAE,
// accumulating parameter gradients into ctx's buffers. vaeScale is λ
// (Eq. 2); zero skips the VAE's own loss but still propagates the regression
// gradient through it. normRows pins the VAE loss normalization to the
// global minibatch size when f covers only a shard of it.
func (m *Model) backward(ctx *nn.Ctx, f *fwd, dc *tensor.Matrix, vaeScale float64, normRows int) {
	b := f.x.Rows
	t := m.tauCount()
	decWGrad := ctx.GradOf(m.decW)
	decBGrad := ctx.GradOf(m.decB)
	dz := tensor.NewMatrix(b*t, m.Cfg.ZDim)
	for e := 0; e < b; e++ {
		for i := 0; i < t; i++ {
			g := dc.At(e, i)
			if g == 0 || f.pre.At(e, i) <= 0 {
				continue // ReLU gate
			}
			w := m.decW.Value[i*m.Cfg.ZDim : (i+1)*m.Cfg.ZDim]
			gw := decWGrad[i*m.Cfg.ZDim : (i+1)*m.Cfg.ZDim]
			zrow := f.z.Row(e*t + i)
			tensor.Axpy(g, zrow, gw)
			decBGrad[i] += g
			tensor.Axpy(g, w, dz.Row(e*t+i))
		}
	}

	var dxp *tensor.Matrix
	if m.Cfg.Accel {
		dxp = m.accel.Backward(ctx, dz)
	} else {
		din := m.phi.Backward(ctx, dz) // B·t × (xp+emb)
		dxp = tensor.NewMatrix(b, f.xp.Cols)
		embGrad := ctx.GradOf(m.emb)
		for e := 0; e < b; e++ {
			for i := 0; i < t; i++ {
				row := din.Row(e*t + i)
				tensor.Axpy(1, row[:f.xp.Cols], dxp.Row(e))
				ge := embGrad[i*m.Cfg.EmbDim : (i+1)*m.Cfg.EmbDim]
				tensor.Axpy(1, row[f.xp.Cols:], ge)
			}
		}
	}

	if m.vae == nil {
		return
	}
	// Split x′ gradient: the raw-x part is input data; the latent part
	// flows back into the VAE together with λ·L_vae.
	dzvae := tensor.NewMatrix(b, m.Cfg.VAELatent)
	for e := 0; e < b; e++ {
		copy(dzvae.Row(e), dxp.Row(e)[m.InDim:])
	}
	m.vae.Backward(ctx, f.vaeOut, f.x, vaeScale, dzvae, normRows)
}

// spotCheckMonotone re-validates the invariant behind Lemma 2 on one set of
// per-distance decoder outputs: every ĉᵢ must be finite and non-negative,
// otherwise the prefix-sum estimate could decrease in τ. A violation means
// numerical corruption (NaN/Inf weights), not a modeling choice, so it is
// counted as an operational alert signal.
func spotCheckMonotone(ci []float64) {
	monoChecks.Inc()
	for _, v := range ci {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			monoViolate.Inc()
			return
		}
	}
}

// CurveMonotone reports whether a served τ-sweep estimate curve upholds the
// Lemma 2 contract: every value finite and non-negative, and the sequence
// non-decreasing in τ. Prefix sums of the (ReLU-bounded) decoder outputs
// satisfy this by construction, so a false return means numerical corruption
// (NaN/Inf weights) — the signal the serving-layer drift monitor counts as a
// monotonicity violation. The comparison is exact: adding a non-negative
// float64 term never decreases a sum, so no epsilon is needed.
func CurveMonotone(curve []float64) bool {
	prev := math.Inf(-1)
	for _, v := range curve {
		if v < prev || v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
		prev = v
	}
	return true
}

// estMinShardRows gates the parallel sharding of EstimateAllTausBatch: a
// batch only fans out across the worker pool when every shard keeps at least
// this many rows, so single-row calls never pay dispatch overhead.
const estMinShardRows = 16

// EstimateAllTausBatch is the model's one nn inference body: xs is B×InDim
// (one encoded query per row) and the result is B×(TauMax+1), row e holding
// the prefix-sum estimates of query e at every τ. Wide batches shard their
// rows across the tensor worker pool. Estimates are answered by compiled
// internal/infer plans instead; this nn forward is their reference (tests
// keep the f64 plan within about 1e-14 of it, and the f32 gate measures the
// f32 plan against the f64 plan) and training validation's forward. It treats
// every row independently, so each output row is bit-identical to its
// single-row call at any worker count. Safe for concurrent callers: it
// writes no shared state.
func (m *Model) EstimateAllTausBatch(xs *tensor.Matrix) *tensor.Matrix {
	if xs.Cols != m.InDim {
		panic(fmt.Sprintf("core: feature dim %d, model expects %d", xs.Cols, m.InDim))
	}
	tm := obs.StartTimer(estBatchLatency)
	t := m.tauCount()
	out := tensor.NewMatrix(xs.Rows, t)
	var c0 []float64 // decoder outputs of row 0, for the monotonicity spot check
	tensor.ParallelRows(xs.Rows, estMinShardRows, func(lo, hi int) {
		f := m.forward(nn.NewCtx(), xs.RowSlice(lo, hi), false, nil)
		for e := lo; e < hi; e++ {
			crow := f.c.Row(e - lo)
			row := out.Row(e)
			var sum float64
			for i := 0; i < t; i++ {
				sum += crow[i]
				row[i] = sum
			}
		}
		if lo == 0 {
			c0 = f.c.Row(0)
		}
	})
	tm.Stop()
	estBatchCalls.Inc()
	estBatchRows.Add(uint64(xs.Rows))
	if estSeq.Add(1)%monoSampleEvery == 0 && c0 != nil {
		spotCheckMonotone(c0)
	}
	return out
}

// TrainResult reports what happened during Train.
type TrainResult struct {
	Epochs         int
	BestValidMSLE  float64
	FinalTrainLoss float64
	Interrupted    bool // Config.Stop requested an early exit; the run is resumable from its last checkpoint
}

// Train fits the model: the VAE is pretrained unsupervised for
// cfg.VAEEpochs, then the full model trains jointly on the MSLE loss with
// the dynamically re-weighted per-distance term (Section 6.2). valid may be
// nil (no early stopping or ω updates then). Labels beyond train.TauTop are
// never formed; the model's decoders above it stay at their initialization
// and contribute ReLU(b)=0 after training pushes biases down, so estimates
// remain monotone regardless.
func (m *Model) Train(train, valid *TrainSet) TrainResult {
	res, err := m.runTrain(train, valid, nil)
	if err != nil {
		// Unreachable for fresh runs: errors only arise restoring a state.
		panic("core: " + err.Error())
	}
	return res
}

// runTrain is the Train loop, optionally continuing from a checkpointed
// state: with st == nil it is the fresh run (VAE pretraining, uniform ω,
// epoch 0); with a state it restores weights, Adam moments, ω, early-stop
// counters, and the RNG stream position, then continues at the next epoch —
// bit-identically to a run that was never interrupted, because every
// stochastic draw bottoms out in the counted source.
func (m *Model) runTrain(train, valid *TrainSet, st *TrainerState) (TrainResult, error) {
	cfg := m.Cfg
	src := newCountingSource(cfg.Seed + 1)
	rng := rand.New(src)
	dataHash := hashTrainData(train, valid)

	if st == nil {
		m.TauTop = train.TauTop
		if m.vae != nil {
			m.vae.Pretrain(train.X, cfg.VAEEpochs, cfg.Batch, cfg.LR, rng, m.workers())
		}
	}

	params := m.Params()
	opt := nn.NewAdam(params, cfg.LR)

	t := m.tauCount()
	top := min(train.TauTop, cfg.TauMax)

	omega := uniformOmega(t, top) // dynamic per-distance weights ω (Section 6.2)
	prevValidPerDist := make([]float64, t)
	deltas := make([]float64, t)
	havePrev := false

	res := TrainResult{BestValidMSLE: math.Inf(1)}
	var best *nn.Snapshot
	badStreak := 0
	startEpoch := 0

	if st != nil {
		if err := st.restoreRun(params, opt, src); err != nil {
			return res, err
		}
		m.TauTop = st.TauTop
		copy(omega, st.Omega)
		copy(prevValidPerDist, st.PrevPerDist)
		havePrev = st.HavePrev
		best = st.Best
		res.BestValidMSLE = st.BestValidMSLE
		res.FinalTrainLoss = st.FinalTrainLoss
		res.Epochs = st.Epoch
		badStreak = st.BadStreak
		startEpoch = st.Epoch
	}

	loop := m.newEpochLoop(train)
	for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
		epochStart := time.Now()
		res.FinalTrainLoss = loop.run(omega, top, opt, rng)
		res.Epochs = epoch + 1

		ev := TrainEvent{Phase: PhaseTrain, Epoch: epoch + 1,
			TrainLoss: res.FinalTrainLoss, LR: cfg.LR}
		if valid != nil {
			vl, perDist := m.validate(valid, top)
			// Dynamic training: shift ω toward distances whose validation loss
			// is trending up (Section 6.2).
			if havePrev {
				updateOmega(omega, deltas, perDist, prevValidPerDist, top)
			}
			copy(prevValidPerDist, perDist)
			havePrev = true

			if vl < res.BestValidMSLE-1e-9 {
				res.BestValidMSLE = vl
				best = nn.TakeSnapshot(params)
				badStreak = 0
				ev.Improved = true
			} else {
				badStreak++
				ev.EarlyStop = cfg.Patience > 0 && badStreak >= cfg.Patience
			}
			ev.HasValid = true
			ev.ValidMSLE = vl
			ev.BestMSLE = res.BestValidMSLE
			ev.Omega = append([]float64(nil), omega[:top+1]...)
		}
		ev.Snapshot = func() *TrainerState {
			return &TrainerState{
				Phase:          PhaseTrain,
				Cfg:            cfg,
				InDim:          m.InDim,
				TauTop:         m.TauTop,
				DataHash:       dataHash,
				Epoch:          res.Epochs,
				RNGDraws:       src.Draws(),
				Params:         nn.TakeSnapshot(params),
				Opt:            opt.State(),
				Omega:          append([]float64(nil), omega...),
				PrevPerDist:    append([]float64(nil), prevValidPerDist...),
				HavePrev:       havePrev,
				Best:           best,
				BestValidMSLE:  res.BestValidMSLE,
				BadStreak:      badStreak,
				FinalTrainLoss: res.FinalTrainLoss,
			}
		}
		emitEpoch(cfg, ev, epochStart)
		if ev.EarlyStop {
			break
		}
		if cfg.Stop != nil && cfg.Stop() {
			res.Interrupted = true
			break
		}
	}
	if !res.Interrupted && best != nil {
		if err := best.Restore(params); err != nil {
			panic("core: snapshot restore failed: " + err.Error())
		}
	}
	return res, nil
}

// uniformOmega returns the starting dynamic per-distance weights ω over t
// decoders: uniform over [0, top] (Σω = 1), zero above.
func uniformOmega(t, top int) []float64 {
	omega := make([]float64, t)
	for i := 0; i <= top; i++ {
		omega[i] = 1 / float64(top+1)
	}
	return omega
}

// updateOmega recomputes the dynamic per-distance weights ω from the change
// in per-distance validation loss (Section 6.2): all weight mass moves to the
// distances whose loss regressed since the previous epoch, proportional to
// how much. When no distance regressed, ω falls back to uniform over
// [0, top] — an all-zero ω would silently disable the Eq. 3 term for the
// rest of the run. deltas is caller-provided scratch of the same length as
// omega; entries above top are left untouched.
func updateOmega(omega, deltas, perDist, prevPerDist []float64, top int) {
	var sumPos float64
	for i := 0; i <= top; i++ {
		deltas[i] = 0
		d := perDist[i] - prevPerDist[i]
		if d > 0 {
			deltas[i] = d
			sumPos += d
		}
	}
	for i := 0; i <= top; i++ {
		if sumPos > 0 {
			omega[i] = deltas[i] / sumPos
		} else {
			omega[i] = 1 / float64(top+1)
		}
	}
}

// emitEpoch finishes a TrainEvent (wall time), records the shared obs
// metrics, and delivers the event to the config's hook. It is telemetry
// only: nothing here feeds back into training state.
func emitEpoch(cfg Config, ev TrainEvent, start time.Time) {
	ev.EpochTime = time.Since(start)
	trainEpochs.Inc()
	trainEpochTime.ObserveDuration(ev.EpochTime)
	if ev.HasValid {
		trainValidMSLE.Set(ev.ValidMSLE)
	}
	if cfg.Hook != nil {
		cfg.Hook(ev)
	}
}

// workers returns the normalized data-parallel width of the trainer:
// cfg.Workers, with everything below one (including the zero value) mapped to
// a single shard.
func (m *Model) workers() int {
	if m.Cfg.Workers < 1 {
		return 1
	}
	return m.Cfg.Workers
}

// shardCtxs returns the training contexts of one run, one per shard of its
// largest minibatch of `rows` rows: min(Workers, rows) of them. They live for
// the whole run and are not stored on the Model; AddGradsInto empties each
// after every step, so reusing them only saves reallocating their buffers.
func (m *Model) shardCtxs(rows int) []*nn.Ctx {
	ctxs := make([]*nn.Ctx, max(1, min(m.workers(), rows)))
	for k := range ctxs {
		ctxs[k] = nn.NewCtx()
	}
	return ctxs
}

// epochLoop is the minibatch loop Train and IncrementalTrain share: one
// run's visit order, minibatch scratch (a RowSlice view trims the final
// short batch) and shard contexts, all reused across every step of every
// epoch.
type epochLoop struct {
	m      *Model
	train  *TrainSet
	perm   []int
	xb, lb *tensor.Matrix
	ctxs   []*nn.Ctx
}

// newEpochLoop allocates the loop's scratch for minibatches of train.
func (m *Model) newEpochLoop(train *TrainSet) *epochLoop {
	n := train.NumQueries()
	rows := min(m.Cfg.Batch, n)
	return &epochLoop{m: m, train: train, perm: make([]int, n),
		xb:   tensor.NewMatrix(rows, train.X.Cols),
		lb:   tensor.NewMatrix(rows, train.Labels.Cols),
		ctxs: m.shardCtxs(rows)}
}

// run trains one epoch, one optimizer step per minibatch, and returns the
// mean minibatch loss (0 when there are no queries). The visit order is a
// pure function of the RNG stream position (identity reshuffled, not a
// cumulative shuffle), so a resumed run reproduces it exactly from the
// skipped-ahead stream.
func (l *epochLoop) run(omega []float64, top int, opt *nn.Adam, rng *rand.Rand) float64 {
	perm, batch := l.perm, l.m.Cfg.Batch
	for e := range perm {
		perm[e] = e
	}
	rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	var loss float64
	var batches int
	for start := 0; start < len(perm); start += batch {
		rows := perm[start:min(start+batch, len(perm))]
		xv := l.xb.RowSlice(0, len(rows))
		lv := l.lb.RowSlice(0, len(rows))
		for i, r := range rows {
			copy(xv.Row(i), l.train.X.Row(r))
			copy(lv.Row(i), l.train.Labels.Row(r))
		}
		loss += l.m.trainBatch(l.ctxs, xv, lv, l.train.P, omega, top, opt, rng)
		batches++
	}
	if batches == 0 {
		return 0
	}
	return loss / float64(batches)
}

// batchLossGrad computes the regression loss of one forward pass and
// accumulates dL/dĉ into dc (rows aligned with f's rows). The batch is
// trained on every τ ∈ [0, top] simultaneously: since ĉ(x,τ) = Σ_{i≤τ} ĉᵢ,
// the gradient of Σ_τ P(τ)·MSLE(ĉ(τ), c(τ)) w.r.t. ĉᵢ is the tail sum over
// τ ≥ i, to which the per-distance term λΔ·ωᵢ·MSLE(ĉᵢ, cᵢ) is added
// (Equations 2–3). Loss terms are normalized by the global batch size normB —
// a shard of a larger minibatch passes the full batch's size so shard partial
// losses and gradients sum to exactly the whole-batch quantities.
func (m *Model) batchLossGrad(f *fwd, labels *tensor.Matrix, p, omega []float64, top, normB int, dc *tensor.Matrix) float64 {
	b := f.x.Rows
	t := m.tauCount()
	var loss float64
	nTotal := normB * (top + 1)
	for e := 0; e < b; e++ {
		lrow := labels.Row(e)
		// Prefix sums of per-distance predictions.
		var cum float64
		cums := make([]float64, top+1)
		for i := 0; i <= top; i++ {
			cum += f.c.At(e, i)
			cums[i] = cum
		}
		// Total-cardinality MSLE, weighted by P(τ) (Eq. 2 expectation).
		var prev float64
		for tau := 0; tau <= top; tau++ {
			w := p[tau] * float64(top+1) // normalize so uniform P has weight 1
			d := logErr(cums[tau], lrow[tau])
			loss += w * d * d / float64(nTotal)
			g := w * msleGrad(cums[tau], lrow[tau], nTotal)
			// dĉ(τ)/dĉᵢ = 1 for all i ≤ τ.
			for i := 0; i <= tau; i++ {
				dc.Data[e*t+i] += g
			}
			// Per-distance term (Eq. 3).
			ci := lrow[tau] - prev
			prev = lrow[tau]
			if m.Cfg.LambdaDelta > 0 && omega[tau] > 0 {
				d := logErr(f.c.At(e, tau), ci)
				loss += m.Cfg.LambdaDelta * omega[tau] * d * d / float64(normB)
				dc.Data[e*t+tau] += m.Cfg.LambdaDelta * omega[tau] * msleGrad(f.c.At(e, tau), ci, normB)
			}
		}
	}
	return loss
}

// trainBatch runs one optimizer step on a batch and returns its loss. The
// batch rows are split into min(len(ctxs), rows) contiguous shards that run
// forward/backward concurrently over shared weights, shard k carrying
// ctxs[k] (activation caches and gradient buffers) and its own noise stream;
// shard gradients are then reduced into Param.Grad in shard order, so a
// fixed worker count reproduces exactly while different counts are
// different (equally valid) runs.
func (m *Model) trainBatch(ctxs []*nn.Ctx, x, labels *tensor.Matrix, p, omega []float64, top int, opt *nn.Adam, rng *rand.Rand) float64 {
	b := x.Rows
	t := m.tauCount()
	w := min(len(ctxs), b)
	// A lone shard draws its VAE noise from rng itself, as Workers = 1 always
	// has: drawing a seed would change every trained bit. Two or more shards
	// each get a seed drawn in shard order, so the epoch's noise is a pure
	// function of (cfg.Seed, worker count), never of scheduling.
	seeds := make([]int64, w)
	if w > 1 {
		for k := range seeds {
			seeds[k] = rng.Int63()
		}
	}
	bounds := tensor.ShardBounds(b, w)
	losses := make([]float64, w)
	vaeSums := make([]float64, w)
	tensor.RunParts(w, func(k int) {
		lo, hi := bounds[k], bounds[k+1]
		srng := rng
		if w > 1 {
			srng = rand.New(rand.NewSource(seeds[k]))
		}
		xs := x.RowSlice(lo, hi)
		ls := labels.RowSlice(lo, hi)
		f := m.forward(ctxs[k], xs, true, srng)
		dc := tensor.NewMatrix(hi-lo, t)
		losses[k] = m.batchLossGrad(f, ls, p, omega, top, b, dc)
		if m.Cfg.Lambda > 0 && m.vae != nil {
			bce, kl := m.vae.LossSums(f.vaeOut, xs)
			vaeSums[k] = bce + kl
		}
		m.backward(ctxs[k], f, dc, m.Cfg.Lambda, b)
	})
	// Ordered reduction: shard k's gradients land before shard k+1's.
	params := m.Params()
	var loss, vaeSum float64
	for k := 0; k < w; k++ {
		ctxs[k].AddGradsInto(params)
		loss += losses[k]
		vaeSum += vaeSums[k]
	}
	if m.Cfg.Lambda > 0 && m.vae != nil {
		// The VAE loss is (BCE sum + KL sum) over the global batch's rows.
		loss += m.Cfg.Lambda * vaeSum / float64(b)
	}
	if m.Cfg.ClipNorm > 0 {
		nn.ClipGradNorm(params, m.Cfg.ClipNorm)
	}
	opt.Step()
	return loss
}

// validate returns the validation MSLE over all (query, τ) pairs weighted by
// P(τ), plus the per-distance MSLE vector ℓᵢ used by dynamic training. The
// queries are split into min(Workers, queries) contiguous shards evaluated
// concurrently (inference writes no shared state) whose accumulators are
// reduced in shard order; one shard runs inline.
func (m *Model) validate(valid *TrainSet, top int) (float64, []float64) {
	t := m.tauCount()
	nq := valid.NumQueries()
	w := m.workers()
	if w > nq {
		w = nq
	}
	bounds := tensor.ShardBounds(nq, w)
	sums := make([][]float64, w)
	counts := make([][]int, w)
	totals := make([]float64, w)
	ns := make([]int, w)
	tensor.RunParts(w, func(k int) {
		sums[k] = make([]float64, t)
		counts[k] = make([]int, t)
		totals[k], ns[k] = m.validateRange(valid, top, bounds[k], bounds[k+1], sums[k], counts[k])
	})
	perDistSum := make([]float64, t)
	perDistN := make([]int, t)
	var total float64
	var n int
	for k := 0; k < w; k++ {
		total += totals[k]
		n += ns[k]
		for i := 0; i < t; i++ {
			perDistSum[i] += sums[k][i]
			perDistN[i] += counts[k][i]
		}
	}
	return finishValidate(total, n, perDistSum, perDistN)
}

// validateRange accumulates validation statistics over queries [lo, hi) into
// the given per-distance buffers, returning the weighted squared-error total
// and pair count of the range. The range's estimates come from one batched
// forward, row-for-row bit-identical to single-query calls.
func (m *Model) validateRange(valid *TrainSet, top, lo, hi int, perDistSum []float64, perDistN []int) (total float64, n int) {
	all := m.EstimateAllTausBatch(valid.X.RowSlice(lo, hi))
	for e := lo; e < hi; e++ {
		ests := all.Row(e - lo)
		lrow := valid.Labels.Row(e)
		var prevL, prevE float64
		for tau := 0; tau <= top && tau < len(lrow); tau++ {
			d := logErr(ests[tau], lrow[tau])
			total += valid.P[tau] * float64(top+1) * d * d
			n++
			ci := lrow[tau] - prevL
			ei := ests[tau] - prevE
			prevL, prevE = lrow[tau], ests[tau]
			pd := logErr(ei, ci)
			perDistSum[tau] += pd * pd
			perDistN[tau]++
		}
	}
	return total, n
}

// finishValidate converts accumulated sums into the (MSLE, per-distance ℓᵢ)
// pair validate returns.
func finishValidate(total float64, n int, perDistSum []float64, perDistN []int) (float64, []float64) {
	for i := range perDistSum {
		if perDistN[i] > 0 {
			perDistSum[i] /= float64(perDistN[i])
		}
	}
	if n == 0 {
		return 0, perDistSum
	}
	return total / float64(n), perDistSum
}

// IncrementalResult reports an incremental-learning run (Section 8).
type IncrementalResult struct {
	Epochs      int
	ValidMSLE   float64
	Skipped     bool // validation error had not degraded, no training needed
	Interrupted bool // Config.Stop requested an early exit; the run is resumable from its last checkpoint
}

// IncrementalTrain implements the update procedure of Section 8: it checks
// the model's error on the relabeled validation set; if it has not degraded
// beyond prevValidMSLE it returns immediately, otherwise it continues
// training from the current weights on the relabeled training data until the
// validation error is stable for three consecutive epochs. The original
// queries are kept; only labels change.
func (m *Model) IncrementalTrain(train, valid *TrainSet, prevValidMSLE float64) IncrementalResult {
	res, err := m.runIncremental(train, valid, prevValidMSLE, nil)
	if err != nil {
		// Unreachable for fresh runs: errors only arise restoring a state.
		panic("core: " + err.Error())
	}
	return res
}

// runIncremental is the IncrementalTrain loop, optionally continuing from a
// checkpointed state (st != nil skips the degradation check — the original
// run already decided to train — and restores counters, moments, and the RNG
// stream position, continuing bit-identically).
func (m *Model) runIncremental(train, valid *TrainSet, prevValidMSLE float64, st *TrainerState) (IncrementalResult, error) {
	cfg := m.Cfg
	top := min(train.TauTop, cfg.TauMax)
	dataHash := hashTrainData(train, valid)

	var res IncrementalResult
	stable := 0
	var last float64
	startEpoch := 0
	if st == nil {
		cur, _ := m.validate(valid, top)
		if cur <= prevValidMSLE*1.02+1e-12 {
			return IncrementalResult{ValidMSLE: cur, Skipped: true}, nil
		}
		res = IncrementalResult{ValidMSLE: cur}
		last = cur
	}

	src := newCountingSource(cfg.Seed + 77)
	rng := rand.New(src)
	params := m.Params()
	opt := nn.NewAdam(params, cfg.LR)

	if st != nil {
		if err := st.restoreRun(params, opt, src); err != nil {
			return res, err
		}
		stable = st.Stable
		last = st.LastValid
		res.ValidMSLE = st.ValidMSLE
		res.Epochs = st.Epoch
		startEpoch = st.Epoch
	}

	omega := uniformOmega(m.tauCount(), top)
	loop := m.newEpochLoop(train)
	for epoch := startEpoch; epoch < 4*cfg.Epochs && stable < 3; epoch++ {
		epochStart := time.Now()
		trainLoss := loop.run(omega, top, opt, rng)
		res.Epochs = epoch + 1
		vl, _ := m.validate(valid, top)
		if math.Abs(vl-last) < 1e-2*(1+last) {
			stable++
		} else {
			stable = 0
		}
		last = vl
		res.ValidMSLE = vl

		ev := TrainEvent{Phase: PhaseIncremental, Epoch: epoch + 1,
			TrainLoss: trainLoss, LR: cfg.LR,
			HasValid: true, ValidMSLE: vl, BestMSLE: vl,
			Omega:     append([]float64(nil), omega[:top+1]...),
			EarlyStop: stable >= 3}
		ev.Snapshot = func() *TrainerState {
			return &TrainerState{
				Phase:     PhaseIncremental,
				Cfg:       cfg,
				InDim:     m.InDim,
				TauTop:    m.TauTop,
				DataHash:  dataHash,
				Epoch:     res.Epochs,
				RNGDraws:  src.Draws(),
				Params:    nn.TakeSnapshot(params),
				Opt:       opt.State(),
				Omega:     append([]float64(nil), omega...),
				Stable:    stable,
				LastValid: last,
				ValidMSLE: res.ValidMSLE,
			}
		}
		emitEpoch(cfg, ev, epochStart)
		if stable < 3 && cfg.Stop != nil && cfg.Stop() {
			res.Interrupted = true
			break
		}
	}
	return res, nil
}

// logErr is log(1+max(p,0)) − log(1+max(y,0)).
func logErr(p, y float64) float64 {
	if p < 0 {
		p = 0
	}
	if y < 0 {
		y = 0
	}
	return math.Log1p(p) - math.Log1p(y)
}

// msleGrad is the derivative of logErr² w.r.t. p, divided by n.
func msleGrad(p, y float64, n int) float64 {
	pc := p
	if pc < 0 {
		pc = 0
	}
	return 2 * logErr(p, y) / (1 + pc) / float64(n)
}
