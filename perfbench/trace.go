package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// spanLog keeps the benchmark's own spans in memory during a traced run:
// one per HTTP request, reload, relabel, IncrementalTrain and SaveModel it
// makes. A nil *spanLog records nothing, so untraced runs pay one nil check.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"` // since the log was created
	DurUs   float64 `json:"dur_us"`
	Parent  string  `json:"parent,omitempty"`
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) add(name string, start time.Time, d time.Duration) {
	l.addChild(name, "", start, d)
}

func (l *spanLog) addChild(name, parent string, start time.Time, d time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{
		Name:    name,
		StartUs: float64(start.Sub(l.t0).Nanoseconds()) / 1e3,
		DurUs:   float64(d.Nanoseconds()) / 1e3,
		Parent:  parent,
	})
}

// write dumps the spans as JSONL.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// stageStats is the mean duration of each server request stage over the
// traces in a cardnet trace log, with the number of traces carrying it.
type stageStats struct {
	Traces int
	MeanUs map[string]float64
	Count  map[string]int
}

// readTraceLog parses the JSONL trace log a `cardnet serve -tracelog` run
// wrote: one {"event":"trace","stages":[{"stage":..,"us":..}],...} per
// sampled request.
func readTraceLog(path string) (stageStats, error) {
	st := stageStats{MeanUs: map[string]float64{}, Count: map[string]int{}}
	f, err := os.Open(path)
	if err != nil {
		return st, fmt.Errorf("open trace log: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	sums := map[string]float64{}
	for sc.Scan() {
		var rec struct {
			Event  string `json:"event"`
			Stages []struct {
				Stage string  `json:"stage"`
				Us    float64 `json:"us"`
			} `json:"stages"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return st, fmt.Errorf("trace log line %d: %w", st.Traces+1, err)
		}
		if rec.Event != "trace" {
			continue
		}
		st.Traces++
		for _, s := range rec.Stages {
			sums[s.Stage] += s.Us
			st.Count[s.Stage]++
		}
	}
	if err := sc.Err(); err != nil {
		return st, fmt.Errorf("read trace log: %w", err)
	}
	for k, s := range sums {
		st.MeanUs[k] = s / float64(st.Count[k])
	}
	return st, nil
}
