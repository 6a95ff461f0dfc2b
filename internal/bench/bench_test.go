package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"cardnet/internal/dataset"
)

// tinyOpts keeps harness tests fast.
func tinyOpts() Options {
	return Options{NOverride: 300, QueryFrac: 0.15, GridPoints: 8, TestPerQuery: 4,
		Quick: true, EpochOverride: 8, Seed: 3, SampleRatio: 0.1}
}

// tinySpec scales a default spec down.
func tinySpec(name string) dataset.Spec {
	s := dataset.DefaultsByName()[name]
	s.N = 300
	return s
}

func TestBuildSuiteAllKinds(t *testing.T) {
	for _, name := range []string{"HM-ImageNet", "ED-AMiner", "JC-BMS", "EU-Glove300"} {
		spec := tinySpec(name)
		s := BuildSuite(spec, tinyOpts())
		b := s.Bundle
		if b.Train.NumQueries() == 0 || b.Valid.NumQueries() == 0 || len(b.Points) == 0 {
			t.Fatalf("%s: empty workload", name)
		}
		if len(s.Handles) < 12 {
			t.Fatalf("%s: only %d handles", name, len(s.Handles))
		}
		// Ground truth sanity: actuals are non-negative and the θmax points
		// have the largest counts per query.
		for _, p := range b.Points {
			if p.Actual < 0 {
				t.Fatalf("%s: negative actual", name)
			}
			if p.Tau < 0 || p.Tau > b.TauMax {
				t.Fatalf("%s: τ out of range: %d", name, p.Tau)
			}
		}
		// SimSelect handle must be exact.
		h := s.Handle(NameSimSelect)
		for _, p := range b.Points[:5] {
			if got := h.Estimate(p); got != p.Actual {
				t.Fatalf("%s: SimSelect %v want %v", name, got, p.Actual)
			}
		}
	}
}

func TestRunAccuracySubset(t *testing.T) {
	specs := []dataset.Spec{tinySpec("HM-ImageNet")}
	names := []string{NameSimSelect, "DB-US", "TL-XGB", NameCardNetA}
	res := RunAccuracy(specs, names, tinyOpts())
	if len(res) != len(names) {
		t.Fatalf("got %d results", len(res))
	}
	byName := map[string]AccuracyResult{}
	for _, r := range res {
		byName[r.Model] = r
		if math.IsNaN(r.Report.MSE) || r.Report.MeanQError < 1 {
			t.Fatalf("%s: bad report %+v", r.Model, r.Report)
		}
	}
	// The exact algorithm has zero error.
	if byName[NameSimSelect].Report.MSE != 0 {
		t.Fatal("SimSelect must be exact")
	}
	// CardNet-A should beat uniform sampling on clustered data.
	if byName[NameCardNetA].Report.MeanQError > byName["DB-US"].Report.MeanQError*2 {
		t.Fatalf("CardNet-A q-error %.2f far worse than DB-US %.2f",
			byName[NameCardNetA].Report.MeanQError, byName["DB-US"].Report.MeanQError)
	}
	var buf bytes.Buffer
	RenderAccuracyTables(&buf, res)
	for _, want := range []string{"Table 3", "Table 4", "Table 5", "Table 6", "Table 9", "Table 10"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("missing %q in output", want)
		}
	}
}

func TestRunTable7(t *testing.T) {
	res := RunTable7([]dataset.Spec{tinySpec("HM-ImageNet")}, tinyOpts())
	if len(res) != 3 { // feature ablation skipped on Hamming
		t.Fatalf("expected 3 ablations on HM, got %d", len(res))
	}
	var buf bytes.Buffer
	RenderTable7(&buf, res)
	if !strings.Contains(buf.String(), "IncrementalPrediction") {
		t.Fatal("missing ablation rows")
	}
	// On a non-HM dataset the feature ablation appears too.
	res2 := RunTable7([]dataset.Spec{tinySpec("JC-BMS")}, tinyOpts())
	if len(res2) != 4 {
		t.Fatalf("expected 4 ablations on JC, got %d", len(res2))
	}
}

func TestRunFig5AndRender(t *testing.T) {
	series := RunFig5([]dataset.Spec{tinySpec("HM-ImageNet")}, tinyOpts())
	if len(series) == 0 {
		t.Fatal("no series")
	}
	for _, s := range series {
		if len(s.Thetas) == 0 || len(s.MSE) != len(s.Thetas) {
			t.Fatalf("bad series %+v", s)
		}
	}
	var buf bytes.Buffer
	RenderThresholdSeries(&buf, "Figure 5", series)
	if !strings.Contains(buf.String(), "Figure 5") {
		t.Fatal("render failed")
	}
}

func TestRunFig6(t *testing.T) {
	spec := tinySpec("HM-ImageNet")
	res := RunFig6([]dataset.Spec{spec}, []int{5, 20}, tinyOpts())
	if len(res) != 2 {
		t.Fatalf("got %d sweep points", len(res))
	}
	if res[0].Decoders != 6 || res[1].Decoders != 21 {
		t.Fatalf("decoder counts wrong: %+v", res)
	}
	var buf bytes.Buffer
	RenderFig6(&buf, res)
	if !strings.Contains(buf.String(), "Figure 6") {
		t.Fatal("render failed")
	}
}

func TestRunFig7(t *testing.T) {
	res := RunFig7([]dataset.Spec{tinySpec("HM-ImageNet")}, []float64{0.5, 1.0},
		[]string{NameCardNetA, "TL-XGB"}, tinyOpts())
	if len(res) != 4 {
		t.Fatalf("got %d rows", len(res))
	}
	// RunFig7 subsets the training rows after the handles are built, so a
	// handle that trained on the full set would score the same at 50%.
	mse := map[string][]float64{}
	for _, r := range res {
		mse[r.Model] = append(mse[r.Model], r.Report.MSE)
	}
	for model, v := range mse {
		if v[0] == v[1] {
			t.Fatalf("%s: same MSE %v at 50%% and 100%% of the training rows", model, v[0])
		}
	}
	var buf bytes.Buffer
	RenderFig7(&buf, res)
	if !strings.Contains(buf.String(), "@50%") {
		t.Fatal("fraction labels missing")
	}
}

func TestRunFig8Updates(t *testing.T) {
	spec := tinySpec("HM-ImageNet")
	spec.N = 250
	o := tinyOpts()
	o.NOverride = 0
	res := RunFig8(spec, 8, 5, 4, o)
	if len(res) != 2 {
		t.Fatalf("expected 2 checkpoints, got %d", len(res))
	}
	for _, p := range res {
		if math.IsNaN(p.IncLearn) || math.IsNaN(p.Retrain) || math.IsNaN(p.PlusSample) {
			t.Fatalf("NaN in %+v", p)
		}
	}
	var buf bytes.Buffer
	RenderFig8(&buf, spec.Name, res)
	if !strings.Contains(buf.String(), "IncLearn") {
		t.Fatal("render failed")
	}
}

func TestRunFig9AndFig10(t *testing.T) {
	specs := []dataset.Spec{tinySpec("HM-ImageNet")}
	names := []string{NameCardNetA, "DB-US"}
	res9 := RunFig9(specs, names, tinyOpts())
	if len(res9["HM-ImageNet"]) != 2 {
		t.Fatalf("fig9 models missing: %v", res9)
	}
	var buf bytes.Buffer
	RenderFig9(&buf, "Figure 9", res9)
	if !strings.Contains(buf.String(), "Q4(tail)") {
		t.Fatal("fig9 render failed")
	}

	res10 := RunFig10(specs, names, tinyOpts())
	if len(res10["HM-ImageNet"]) != 2 {
		t.Fatalf("fig10 models missing: %v", res10)
	}
}

func TestOODSwapChangesWorkload(t *testing.T) {
	s := BuildSuite(tinySpec("HM-ImageNet"), tinyOpts())
	b := s.Bundle
	before := b.Actuals()
	s.Handle(NameCardNetA).Fit()
	b.UseOutOfDatasetQueries(100, b.TestX.Rows, 17)
	after := b.Actuals()
	if len(after) == 0 {
		t.Fatal("no OOD points")
	}
	var sumB, sumA float64
	for _, v := range before {
		sumB += v
	}
	for _, v := range after {
		sumA += v
	}
	// Far queries have smaller cardinalities than in-dataset queries.
	if sumA >= sumB {
		t.Fatalf("OOD queries should be sparser: %v vs %v", sumA, sumB)
	}
	// SimSelect still exact after the swap.
	h := s.Handle(NameSimSelect)
	for _, p := range b.Points[:5] {
		if h.Estimate(p) != p.Actual {
			t.Fatal("SimSelect stale after OOD swap")
		}
	}
	// CardNet-A, fitted before the swap, answers the swapped queries: it
	// agrees with the same model fitted after the same swap.
	s2 := BuildSuite(tinySpec("HM-ImageNet"), tinyOpts())
	s2.Bundle.UseOutOfDatasetQueries(100, s2.Bundle.TestX.Rows, 17)
	for i, p := range b.Points {
		if p != s2.Bundle.Points[i] {
			t.Fatalf("point %d: swap not deterministic: %+v vs %+v", i, p, s2.Bundle.Points[i])
		}
		if got, want := s.Handle(NameCardNetA).Estimate(p), s2.Handle(NameCardNetA).Estimate(p); got != want {
			t.Fatalf("point %d: CardNet-A fitted before the swap estimates %v, after it %v", i, got, want)
		}
	}
}

func TestRunPolicies(t *testing.T) {
	res := RunPolicies([]dataset.Spec{tinySpec("HM-ImageNet")},
		[]string{NameCardNetA, "DB-US"}, []Policy{SingleUniform, SingleSkewed}, tinyOpts())
	if len(res) != 4 {
		t.Fatalf("got %d policy rows", len(res))
	}
	var buf bytes.Buffer
	RenderPolicies(&buf, res)
	if !strings.Contains(buf.String(), "Table 14") || !strings.Contains(buf.String(), "Table 16") {
		t.Fatal("policy tables missing")
	}
}

func TestFig1AndStatsAndTable13(t *testing.T) {
	var buf bytes.Buffer
	spec := tinySpec("HM-ImageNet")
	RunFig1(&buf, spec, 3, 100)
	if !strings.Contains(buf.String(), "Figure 1(a)") || !strings.Contains(buf.String(), "Figure 1(b)") {
		t.Fatal("fig1 output missing")
	}
	buf.Reset()
	RenderDatasetStats(&buf, []dataset.Spec{spec, tinySpec("ED-AMiner")})
	if !strings.Contains(buf.String(), "HM-ImageNet") {
		t.Fatal("stats missing")
	}
	buf.Reset()
	RenderTable13(&buf, []dataset.Spec{spec}, 120)
	if !strings.Contains(buf.String(), "Table 13") {
		t.Fatal("table 13 missing")
	}
}

func TestRunFig11Conjunctive(t *testing.T) {
	specs := []ConjSpec{{Name: "tiny-conj", Attrs: 2, N: 250, Dim: 8, Seed: 42}}
	res := RunFig11(specs, 12, tinyOpts())
	if len(res) != 6 { // Exact, CardNet-A, DL-RMI, TL-XGB, DB-US, Mean
		t.Fatalf("got %d results", len(res))
	}
	byName := map[string]ConjResult{}
	for _, r := range res {
		byName[r.Model] = r
		if r.Precision < 0 || r.Precision > 1 {
			t.Fatalf("bad precision %+v", r)
		}
	}
	if byName["Exact"].Precision < 0.99 {
		t.Fatalf("exact oracle precision %.2f", byName["Exact"].Precision)
	}
	var buf bytes.Buffer
	RenderFig11(&buf, res)
	if !strings.Contains(buf.String(), "Precision") {
		t.Fatal("render failed")
	}
}

func TestRunFig13And14GPH(t *testing.T) {
	spec := dataset.Spec{Name: "tiny-gph", Kind: dataset.HM, N: 250, Dim: 96,
		ThetaMax: 24, Seed: 71, Clusters: 5, Flip: 0.05}
	res := RunFig13([]dataset.Spec{spec}, 8, []int{8, 16}, tinyOpts())
	if len(res) != 10 { // 5 estimators × 2 thresholds
		t.Fatalf("got %d results", len(res))
	}
	// Exact allocation never produces more candidates than Mean at the same
	// threshold.
	byKey := map[string]int{}
	for _, r := range res {
		byKey[r.Model+"@"+itoa(r.Theta)] = r.Candidates
	}
	for _, th := range []int{8, 16} {
		if byKey["Exact@"+itoa(th)] > byKey["Mean@"+itoa(th)] {
			t.Fatalf("exact allocation worse than mean at θ=%d", th)
		}
	}
	var buf bytes.Buffer
	RenderFig13(&buf, res)
	if !strings.Contains(buf.String(), "Figure 13") {
		t.Fatal("fig13 render failed")
	}

	res14 := RunFig14(spec, 6, []int{4, 8}, tinyOpts())
	if len(res14) != 4 { // 2 histogram sizes + CardNet-A + Mean
		t.Fatalf("got %d fig14 rows", len(res14))
	}
	buf.Reset()
	RenderFig14(&buf, res14)
	if !strings.Contains(buf.String(), "Figure 14") {
		t.Fatal("fig14 render failed")
	}
}

func TestRenderMonotonicity(t *testing.T) {
	var buf bytes.Buffer
	RenderMonotonicity(&buf, []dataset.Spec{tinySpec("HM-ImageNet")},
		[]string{NameCardNetA, "TL-XGB"}, tinyOpts())
	out := buf.String()
	if !strings.Contains(out, "100%") {
		t.Fatalf("monotone models must be 100%% monotone:\n%s", out)
	}
}

func itoa(v int) string {
	var buf [8]byte
	i := len(buf)
	if v == 0 {
		return "0"
	}
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func TestBiLSTMHandlePresentOnlyForEditDistance(t *testing.T) {
	ed := BuildSuite(tinySpec("ED-AMiner"), tinyOpts())
	h := ed.Handle("DL-BiLSTM")
	if h == nil {
		t.Fatal("ED suite must include DL-BiLSTM")
	}
	p := ed.Bundle.Points[0]
	if v := h.Estimate(p); v < 0 || math.IsNaN(v) {
		t.Fatalf("bad BiLSTM estimate %v", v)
	}
	hm := BuildSuite(tinySpec("HM-ImageNet"), tinyOpts())
	if hm.Handle("DL-BiLSTM") != nil {
		t.Fatal("non-string suites must not include DL-BiLSTM")
	}
}

func TestObsSnapshotAfterFit(t *testing.T) {
	s := BuildSuite(tinySpec("HM-ImageNet"), tinyOpts())
	fits0 := fitCount.Value()
	evals0 := evalPoints.Value()
	h := s.Handle(NameCardNetA)
	for _, p := range s.Bundle.Points[:3] {
		h.Estimate(p)
	}
	if fitCount.Value() != fits0+1 {
		t.Fatalf("fit counter moved by %d, want 1", fitCount.Value()-fits0)
	}
	if evalPoints.Value() != evals0+3 {
		t.Fatalf("eval counter moved by %d, want 3", evalPoints.Value()-evals0)
	}

	var buf bytes.Buffer
	if err := WriteObsSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]uint64  `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot not JSON: %v", err)
	}
	if snap.Counters["core.train.epochs"] == 0 {
		t.Fatal("snapshot missing training epochs")
	}
	if snap.Gauges["bench.fit_seconds."+NameCardNetA] <= 0 {
		t.Fatal("snapshot missing per-model fit gauge")
	}
}
