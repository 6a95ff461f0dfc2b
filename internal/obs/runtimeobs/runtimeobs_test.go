package runtimeobs

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"

	"cardnet/internal/obs"
)

func TestSamplerPublishesRuntimeMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Registry: reg})
	// Force a GC so the pause histogram and GC counter have something to see.
	runtime.GC()
	runtime.GC()
	s.Sample()

	if v := reg.Gauge("runtime.goroutines").Value(); v < 1 {
		t.Fatalf("goroutines = %v", v)
	}
	if v := reg.Gauge("runtime.gomaxprocs").Value(); v < 1 {
		t.Fatalf("gomaxprocs = %v", v)
	}
	if v := reg.Gauge("runtime.heap.alloc.bytes").Value(); v <= 0 {
		t.Fatalf("heap alloc = %v", v)
	}
	if v := reg.Gauge("process.start_time.seconds").Value(); v <= 0 {
		t.Fatalf("start time = %v", v)
	}
	if got, now := reg.Gauge("process.start_time.seconds").Value(), float64(time.Now().Unix()); got > now+1 {
		t.Fatalf("start time %v is in the future (now %v)", got, now)
	}
	if c := reg.Counter("runtime.gc.count").Value(); c < 2 {
		t.Fatalf("gc count = %d after two forced GCs", c)
	}
	if n := reg.Histogram("runtime.gc.pause.seconds", nil).Count(); n < 2 {
		t.Fatalf("gc pause observations = %d", n)
	}
	if c := reg.Counter("runtime.samples").Value(); c != 1 {
		t.Fatalf("samples = %d", c)
	}

	// Second sample observes only the delta of GC cycles.
	before := reg.Histogram("runtime.gc.pause.seconds", nil).Count()
	s.Sample()
	after := reg.Histogram("runtime.gc.pause.seconds", nil).Count()
	if after != before {
		t.Fatalf("pause observations changed without a GC: %d -> %d", before, after)
	}
	runtime.GC()
	s.Sample()
	if got := reg.Histogram("runtime.gc.pause.seconds", nil).Count(); got != after+1 {
		t.Fatalf("one GC should add one pause observation: %d -> %d", after, got)
	}
}

func TestSamplerStartStopAndExposition(t *testing.T) {
	reg := obs.NewRegistry()
	s := Start(Config{Interval: time.Millisecond, Registry: reg})
	deadline := time.Now().Add(2 * time.Second)
	for reg.Counter("runtime.samples").Value() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	if got := reg.Counter("runtime.samples").Value(); got < 3 {
		t.Fatalf("sampler only took %d samples in 2s at 1ms cadence", got)
	}

	// The whole runtime surface must reach the registry's JSON snapshot, the
	// document /metrics serves by default.
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap map[string]map[string]any
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct{ kind, name string }{
		{"gauges", "runtime.goroutines"},
		{"gauges", "runtime.heap.alloc.bytes"},
		{"counters", "runtime.gc.count"},
		{"histograms", "runtime.gc.pause.seconds"},
		{"gauges", "process.start_time.seconds"},
		{"gauges", "process.uptime.seconds"},
	} {
		if _, ok := snap[want.kind][want.name]; !ok {
			keys := make([]string, 0, len(snap[want.kind]))
			for k := range snap[want.kind] {
				keys = append(keys, k)
			}
			t.Fatalf("%s %q missing from the snapshot; have %s", want.kind, want.name, strings.Join(keys, ", "))
		}
	}
}

func TestConcurrentSampleSafe(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Registry: reg})
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			for j := 0; j < 50; j++ {
				s.Sample()
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if got := reg.Counter("runtime.samples").Value(); got != 200 {
		t.Fatalf("samples = %d, want 200", got)
	}
}
