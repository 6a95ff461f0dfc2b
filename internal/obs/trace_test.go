package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// testStage is a stage named name over a fresh registry's histogram.
func testStage(name string) *Stage {
	return &Stage{Name: name, Hist: NewRegistry().Histogram("test."+name+".seconds", TimeBuckets())}
}

// traceStages reads a trace's completed stages from its JSONL fields.
func traceStages(tr *Trace) []TraceStage {
	return tr.Fields()["stages"].([]TraceStage)
}

func TestTraceStagesTileTotal(t *testing.T) {
	tr := NewTrace()
	if len(tr.ID) != 16 {
		t.Fatalf("trace id %q, want 16 hex chars", tr.ID)
	}
	tr.Mark(testStage("admission"))
	time.Sleep(2 * time.Millisecond)
	tr.Mark(testStage("queue.wait"))
	tr.Mark(testStage("forward"))

	stages := traceStages(tr)
	if len(stages) != 3 {
		t.Fatalf("stages = %+v", stages)
	}
	var sum float64
	for _, s := range stages {
		if s.Us < 0 {
			t.Fatalf("negative stage duration: %+v", s)
		}
		sum += s.Us
	}
	total := float64(tr.Total().Nanoseconds()) / 1e3
	if diff := sum - total; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("stage sum %.3fus != total %.3fus", sum, total)
	}
}

func TestTraceMarkAtClampsBackwards(t *testing.T) {
	tr := NewTrace()
	tr.Mark(testStage("a"))
	// An end before the previous mark (abandoned-request race) must clamp.
	if d := tr.MarkAt(testStage("b"), tr.Start.Add(-time.Second)); d != 0 {
		t.Fatalf("backwards MarkAt returned %v, want 0", d)
	}
	if tr.Total() < 0 {
		t.Fatalf("negative total %v", tr.Total())
	}
}

func TestTraceIDsUnique(t *testing.T) {
	const n = 4096
	seen := make(map[string]bool, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := make([]string, 0, n/8)
			for i := 0; i < n/8; i++ {
				ids = append(ids, NewTrace().ID)
			}
			mu.Lock()
			defer mu.Unlock()
			for _, id := range ids {
				if seen[id] {
					t.Errorf("duplicate trace id %s", id)
				}
				seen[id] = true
			}
		}()
	}
	wg.Wait()
}

func TestTraceFieldsAndSampler(t *testing.T) {
	var buf bytes.Buffer
	sink := NewSink(&buf)
	s := NewTraceSampler(0.5, sink) // every 2nd
	if s.Every() != 2 {
		t.Fatalf("every = %d, want 2", s.Every())
	}
	emitted := 0
	forward := testStage("forward")
	for i := 0; i < 10; i++ {
		tr := NewTrace()
		tr.Mark(forward)
		tr.Annotate("batch_size", 4)
		tr.Annotate("flush", "deadline")
		if s.Sample() {
			if err := s.Emit(tr); err != nil {
				t.Fatal(err)
			}
			emitted++
		}
	}
	if emitted != 5 {
		t.Fatalf("emitted %d traces at rate 0.5 over 10, want 5", emitted)
	}
	// Emission is asynchronous; Close drains the queue into the sink.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Dropped() != 0 {
		t.Fatalf("dropped %d traces with an idle queue", s.Dropped())
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		lines++
		var rec struct {
			Event   string       `json:"event"`
			TraceID string       `json:"trace_id"`
			TotalUs float64      `json:"total_us"`
			Stages  []TraceStage `json:"stages"`
			Batch   int          `json:"batch_size"`
			Flush   string       `json:"flush"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if rec.Event != "trace" || len(rec.TraceID) != 16 || len(rec.Stages) != 1 ||
			rec.Stages[0].Name != "forward" || rec.Batch != 4 || rec.Flush != "deadline" {
			t.Fatalf("trace event: %+v", rec)
		}
	}
	if lines != 5 {
		t.Fatalf("%d JSONL lines, want 5", lines)
	}

	// Disabled samplers are nil-safe no-ops.
	var off *TraceSampler
	if off.Sample() || off.Emit(NewTrace()) != nil || off.Every() != 0 ||
		off.Close() != nil || off.Dropped() != 0 {
		t.Fatal("nil sampler must be inert")
	}
	if NewTraceSampler(0, sink) != nil || NewTraceSampler(1.5, sink) != nil || NewTraceSampler(0.5, nil) != nil {
		t.Fatal("invalid sampler configs must return nil")
	}
}

// The abandoned-request race: the HTTP goroutine gives up (marks "write")
// while a worker is still marking engine stages. Must be race-free (run
// under -race) and never produce negative durations.
func TestTraceConcurrentMarks(t *testing.T) {
	tr := NewTrace()
	worker, write := testStage("worker"), testStage("write")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if g%2 == 0 {
					tr.Mark(worker)
				} else {
					tr.Annotate("k", g)
					tr.MarkAt(write, time.Now())
				}
			}
		}(g)
	}
	wg.Wait()
	stages := traceStages(tr)
	for _, s := range stages {
		if s.Us < 0 {
			t.Fatalf("negative duration %+v", s)
		}
	}
	if !strings.Contains("worker write", stages[0].Name) {
		t.Fatalf("unexpected stage %q", stages[0].Name)
	}
	if n := worker.Hist.Count() + write.Hist.Count(); n != 400 || len(stages) != 400 {
		t.Fatalf("%d stages, %d histogram observations; want 400 of each", len(stages), n)
	}
}

// A mark observes its duration into the stage's histogram, once; a nil
// trace (an untraced request) marks, observes and annotates nothing.
func TestTraceMarkObservesStageHistogram(t *testing.T) {
	st := testStage("forward")
	tr := NewTrace()
	d := tr.MarkAt(st, tr.Start.Add(3*time.Millisecond))
	if d != 3*time.Millisecond || st.Hist.Count() != 1 || st.Hist.Sum() != d.Seconds() {
		t.Fatalf("mark returned %v; histogram count %d sum %v", d, st.Hist.Count(), st.Hist.Sum())
	}
	var untraced *Trace
	untraced.Annotate("k", 1)
	if untraced.Mark(st) != 0 || untraced.MarkAt(st, time.Now()) != 0 || st.Hist.Count() != 1 {
		t.Fatalf("nil trace observed: histogram count %d", st.Hist.Count())
	}
}

// Annotations past the inline capacity spill rather than drop, and the last
// write of a key wins wherever the key sits.
func TestTraceAnnotateSpillsAndOverwrites(t *testing.T) {
	tr := NewTrace()
	const n = 3 * traceInline
	for i := 0; i < n; i++ {
		tr.Annotate(fmt.Sprintf("k%d", i), i)
	}
	tr.Annotate("k0", "first, rewritten")
	tr.Annotate(fmt.Sprintf("k%d", n-1), "last, rewritten")
	f := tr.Fields()
	if len(f) != 3+n {
		t.Fatalf("%d fields, want %d annotations + trace_id, total_us, stages", len(f), n)
	}
	for i := 1; i < n-1; i++ {
		if f[fmt.Sprintf("k%d", i)] != i {
			t.Fatalf("k%d = %v, want %d", i, f[fmt.Sprintf("k%d", i)], i)
		}
	}
	if f["k0"] != "first, rewritten" || f[fmt.Sprintf("k%d", n-1)] != "last, rewritten" {
		t.Fatalf("rewrites lost: k0=%v k%d=%v", f["k0"], n-1, f[fmt.Sprintf("k%d", n-1)])
	}
	for i := 0; i < 2*traceInline; i++ {
		tr.Mark(testStage("s"))
	}
	if got := len(traceStages(tr)); got != 2*traceInline {
		t.Fatalf("%d stages past the inline capacity, want %d", got, 2*traceInline)
	}
}

// TestTraceAllocs pins a request's trace bookkeeping: a trace with the
// replica's six marks and six annotations of static values allocates only
// the Trace and its ID string.
func TestTraceAllocs(t *testing.T) {
	var stages [6]*Stage
	for i := range stages {
		stages[i] = testStage(fmt.Sprintf("s%d", i))
	}
	got := testing.AllocsPerRun(100, func() {
		tr := NewTrace()
		tr.Annotate("role", "replica")
		tr.Annotate("parent", "00000000000000aa/attempt.1")
		for _, s := range stages {
			tr.Mark(s)
		}
		tr.Annotate("model_version", uint64(3))
		tr.Annotate("cache_hit", false)
		tr.Annotate("batch_size", 2)
		tr.Annotate("flush", "deadline")
	})
	if got != 2 {
		t.Fatalf("trace with 6 marks and 6 annotations: %v allocs, want 2", got)
	}
}

// TestTraceJSONLGolden: a replica-shaped trace and a router-shaped trace
// with one failover render exactly the committed JSONL lines (keys, values,
// stage order), so trace logs stay byte-compatible for tracescan.
func TestTraceJSONLGolden(t *testing.T) {
	at := func(tr *Trace, n int) time.Time { return tr.Start.Add(time.Duration(n) * 1500 * time.Nanosecond) }

	rep := NewTraceWith("00000000000000aa")
	rep.Annotate("role", "replica")
	rep.Annotate("parent", "00000000000000aa/attempt.2")
	rep.MarkAt(testStage("admission"), at(rep, 2))
	rep.Annotate("model_version", uint64(3))
	rep.MarkAt(testStage("cache"), at(rep, 3))
	rep.Annotate("cache_hit", false)
	rep.MarkAt(testStage("queue.wait"), at(rep, 5))
	rep.MarkAt(testStage("batch.form"), at(rep, 8))
	rep.Annotate("batch_size", 2)
	rep.Annotate("flush", "deadline")
	rep.MarkAt(testStage("forward"), at(rep, 13))
	rep.MarkAt(testStage("write"), at(rep, 21))

	rt := NewTraceWith("00000000000000aa")
	rt.Annotate("role", "router")
	rt.MarkAt(testStage("route"), at(rt, 1))
	rt.MarkAt(testStage("pick"), at(rt, 2))
	rt.MarkAt(testStage("attempt.1"), at(rt, 4))
	rt.MarkAt(testStage("proxy"), at(rt, 30))
	rt.MarkAt(testStage("relay"), at(rt, 31))
	rt.Annotate("status", 200)
	rt.Annotate("attempts", []map[string]any{
		{"n": 1, "replica": "http://127.0.0.1:1", "outcome": "rejected_503", "us": 3.0},
		{"n": 2, "replica": "http://127.0.0.1:2", "outcome": "ok", "us": 39.0},
	})
	rt.Annotate("failovers", 1)

	var buf bytes.Buffer
	sink := NewSink(&buf)
	sink.now = func() time.Time { return time.Unix(1700000000, 0) }
	for _, tr := range []*Trace{rep, rt} {
		if err := sink.Emit("trace", tr.Fields()); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile("testdata/traces.golden.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		t.Fatalf("trace JSONL drifted from testdata/traces.golden.jsonl:\ngot:\n%swant:\n%s", got, want)
	}
}

// One stride, shared by the trace sampler and the audit replay: 1 in
// round(1/rate), nil (never sampling) outside (0, 1].
func TestStride(t *testing.T) {
	for _, c := range []struct {
		rate  float64
		every uint64
	}{{1, 1}, {0.5, 2}, {0.3, 3}, {0.01, 100}, {0.004, 250}} {
		s := NewStride(c.rate)
		if s.every != c.every {
			t.Fatalf("rate %g: every %d, want %d", c.rate, s.every, c.every)
		}
		hits := 0
		for i := uint64(0); i < 3*c.every; i++ {
			if s.Sample() {
				hits++
			}
		}
		if hits != 3 {
			t.Fatalf("rate %g: %d samples in %d calls, want 3", c.rate, hits, 3*c.every)
		}
	}
	for _, rate := range []float64{0, -1, 1.5, math.NaN()} {
		if s := NewStride(rate); s != nil || s.Sample() {
			t.Fatalf("rate %g: want a nil, never-sampling stride", rate)
		}
	}
}
