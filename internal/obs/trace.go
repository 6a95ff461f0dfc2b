package obs

import (
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Cross-process span-propagation headers. TraceHeader carries the fleet-wide
// trace ID (minted by whichever hop sees the request first — normally the
// cluster router); TraceParentHeader carries the parent span within that
// trace (the router's attempt span a replica's stage trace hangs under), so
// the two sides' sampled JSONL trace logs can be joined by `cardnet
// tracescan` into one end-to-end trace.
const (
	TraceHeader       = "X-Trace-Id"
	TraceParentHeader = "X-Trace-Parent"
	// TraceSampledHeader propagates the sampling decision: when the router
	// samples a request it sets this to "1" on the forwarded request, and
	// the replica emits its stage trace regardless of its own sampling
	// counter. Without decision propagation the two sides would sample
	// independently and their logs would almost never name the same
	// request at operational rates (two independent 1-in-100 counters
	// coincide 1 time in 10,000).
	TraceSampledHeader = "X-Trace-Sampled"
)

// Stage is one pipeline stage: the name its trace entry carries and the
// latency histogram its duration feeds, so one Mark records both. Each role
// (replica, router) declares its stages once, in one table.
type Stage struct {
	Name string
	Hist *Histogram
}

// Trace is one request's journey through the serving pipeline: a process-
// unique ID, a start time, and an ordered list of named stages whose
// durations tile the interval from Start to the last Mark exactly — every
// nanosecond between two marks is attributed to the later stage, so the
// per-stage histograms built from traces sum to the end-to-end latency by
// construction.
//
// Stages and annotations live in inline arrays (see traceInline), so an
// unsampled request's bookkeeping is the one Trace allocation; the JSONL map
// is built only by Fields, on emission.
//
// A trace is handed between goroutines (HTTP handler → batch worker → HTTP
// handler); each hand-off happens-before the next mark via the engine's
// channels, and a mutex covers the one racy edge case (a caller abandoning a
// request on context expiry while a worker still holds its trace).
type Trace struct {
	ID    string
	Start time.Time

	mu     sync.Mutex
	last   time.Time
	stages []TraceStage // backed by stageBuf until it spills
	attrs  []traceAttr  // backed by attrBuf until it spills

	stageBuf [traceInline]TraceStage
	attrBuf  [traceInline]traceAttr
}

// traceInline is the inline capacity of a trace's stages and annotations: a
// replica marks six stages and annotates six keys, a router at its default
// failover budget at most six and four. More spill to the heap.
const traceInline = 6

// TraceStage is one completed pipeline stage.
type TraceStage struct {
	Name string  `json:"stage"`
	Us   float64 `json:"us"` // stage duration in microseconds
}

// traceAttr is one annotation.
type traceAttr struct {
	key string
	v   any
}

// traceSeq seeds trace IDs; the counter makes IDs unique within the process
// and the seed makes the ID stream unique across the fleet (see traceSeed).
var traceSeq atomic.Uint64

func init() { traceSeq.Store(traceSeed(time.Now().UnixNano(), os.Getpid())) }

// traceSeed derives the trace-ID counter's start point from the process
// start time and PID, both pushed through the splitmix64 finalizer. Time
// alone is not fleet-unique: two replicas launched in the same nanosecond
// (containers sharing a clock, a test forking a fleet) would walk identical
// ID streams. Mixing the PID in — and avalanching the combination — places
// each process's stream at an effectively random offset of the 2⁶⁴ counter
// cycle, so streams of distinct processes do not collide in practice.
func traceSeed(nano int64, pid int) uint64 {
	return mix64(uint64(nano)) ^ mix64(uint64(pid)+0x6a09e667f3bcc909)
}

// mix64 is the splitmix64 finalizer: a cheap invertible avalanche.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewTrace starts a trace now with a fresh ID.
func NewTrace() *Trace { return NewTraceWith("") }

// NewTraceWith starts a trace now adopting a propagated trace ID (the
// TraceHeader value from an upstream hop); an empty id mints a fresh one, so
// edge processes and interior hops share one code path.
func NewTraceWith(id string) *Trace {
	if id == "" {
		id = NewTraceID()
	}
	now := time.Now()
	t := &Trace{ID: id, Start: now, last: now}
	t.stages = t.stageBuf[:0]
	t.attrs = t.attrBuf[:0]
	return t
}

// NewTraceID mints one fleet-unique 16-hex-digit ID (a splitmix64 step over
// a time+PID-seeded counter — cheap, collision-free within the process, and
// with no global lock on the hot path): every trace's, and join keys on
// non-request timelines (the rollout journal).
func NewTraceID() string {
	z := mix64(traceSeq.Add(0x9e3779b97f4a7c15))
	const hex = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hex[z&0xf]
		z >>= 4
	}
	return string(b[:])
}

// Mark closes stage s, running since the previous mark (or Start): it
// records the stage, observes its duration into s.Hist and returns it. A nil
// trace (an untraced request) records and observes nothing.
func (t *Trace) Mark(s *Stage) time.Duration {
	if t == nil {
		return 0
	}
	return t.MarkAt(s, time.Now())
}

// MarkAt is Mark at an explicit end instant, so a batch worker can split one
// observed interval into queue-wait and batch-formation stages at the moment
// the batch started forming. Ends before the previous mark (the
// abandoned-request race) clamp to a zero-length stage.
func (t *Trace) MarkAt(s *Stage, end time.Time) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	d := end.Sub(t.last)
	if d < 0 {
		d = 0
		end = t.last
	}
	t.last = end
	t.stages = append(t.stages, TraceStage{Name: s.Name, Us: float64(d.Nanoseconds()) / 1e3})
	t.mu.Unlock()
	s.Hist.ObserveDuration(d)
	return d
}

// Annotate attaches a key/value to the trace (batch size, flush reason,
// cache hit/miss, model version, …); annotating a key again replaces its
// value. Nil-safe.
func (t *Trace) Annotate(key string, v any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.attrs {
		if t.attrs[i].key == key {
			t.attrs[i].v = v
			return
		}
	}
	t.attrs = append(t.attrs, traceAttr{key, v})
}

// Total returns the traced interval: Start to the last mark.
func (t *Trace) Total() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.last.Sub(t.Start)
}

// Fields renders the trace as a Sink event payload: id, total, the ordered
// stages, and every annotation (annotations are copied, so the caller may
// keep mutating the trace).
func (t *Trace) Fields() map[string]any {
	t.mu.Lock()
	defer t.mu.Unlock()
	f := make(map[string]any, 3+len(t.attrs))
	f["trace_id"] = t.ID
	f["total_us"] = float64(t.last.Sub(t.Start).Nanoseconds()) / 1e3
	f["stages"] = append([]TraceStage(nil), t.stages...)
	for _, a := range t.attrs {
		f[a.key] = a.v
	}
	return f
}

// Stride is counter-based sampling, one call in every N: deterministic,
// cheap (one atomic add per call), and free of RNG locks on the hot path.
type Stride struct {
	every uint64
	seq   atomic.Uint64
}

// NewStride returns the stride sampling 1 in round(1/rate) calls, or nil
// (sampling off) for a rate outside (0, 1], NaN included.
func NewStride(rate float64) *Stride {
	if !(rate > 0 && rate <= 1) {
		return nil
	}
	return &Stride{every: max(uint64(1/rate+0.5), 1)}
}

// Sample reports whether the current call is sampled, advancing the
// sequence. Nil-safe.
func (s *Stride) Sample() bool {
	return s != nil && s.seq.Add(1)%s.every == 0
}

// TraceSampler emits every Nth trace to a JSONL sink: rate 0.01 means one
// trace in 100, counted by a Stride. Emission is asynchronous: Emit hands
// the rendered trace to a background writer over a bounded queue, so JSON
// marshaling and the write syscall never sit on the request path. A full queue drops the trace (counted, never blocking);
// Close drains the queue, so traces emitted before Close are durable.
type TraceSampler struct {
	stride  *Stride
	sink    *Sink
	queue   chan map[string]any
	quit    chan struct{}
	done    chan struct{}
	dropped atomic.Uint64
	once    sync.Once
}

// traceQueueDepth bounds the async emission queue. At typical trace sizes
// the writer drains tens of thousands of lines per second, so the queue only
// fills if the sink's backing store stalls outright.
const traceQueueDepth = 1024

// NewTraceSampler builds a sampler writing to sink at the given rate. A nil
// sink, or a rate outside (0, 1], yields a nil sampler (sampling off); rates
// are rounded to 1-in-round(1/rate). The caller keeps ownership of sink and
// must Close the sampler (draining its queue) before closing the sink.
func NewTraceSampler(rate float64, sink *Sink) *TraceSampler {
	stride := NewStride(rate)
	if sink == nil || stride == nil {
		return nil
	}
	s := &TraceSampler{
		stride: stride,
		sink:   sink,
		queue:  make(chan map[string]any, traceQueueDepth),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go s.writer()
	return s
}

// writer is the background goroutine that owns all sink writes. On quit it
// drains whatever Emit already queued before acknowledging.
func (s *TraceSampler) writer() {
	defer close(s.done)
	for {
		select {
		case f := <-s.queue:
			s.sink.Emit("trace", f)
		case <-s.quit:
			for {
				select {
				case f := <-s.queue:
					s.sink.Emit("trace", f)
				default:
					return
				}
			}
		}
	}
}

// Sample reports whether the current request should be emitted, advancing
// the sampling sequence. Nil-safe.
func (s *TraceSampler) Sample() bool {
	return s != nil && s.stride.Sample()
}

// Emit queues one trace for background emission as a "trace" event. The
// hot-path cost is rendering the fields map and one channel send; if the
// queue is full the trace is dropped and counted. Nil-safe.
func (s *TraceSampler) Emit(t *Trace) error {
	if s == nil || t == nil {
		return nil
	}
	select {
	case s.queue <- t.Fields():
	default:
		s.dropped.Add(1)
	}
	return nil
}

// Dropped reports traces lost to a full emission queue. Nil-safe.
func (s *TraceSampler) Dropped() uint64 {
	if s == nil {
		return 0
	}
	return s.dropped.Load()
}

// Close stops the background writer after draining every queued trace. It
// does not close the sink (the caller owns it). Idempotent and nil-safe;
// traces emitted concurrently with Close may be dropped.
func (s *TraceSampler) Close() error {
	if s == nil {
		return nil
	}
	s.once.Do(func() {
		close(s.quit)
		<-s.done
	})
	return nil
}

// Every returns the sampling stride (0 for a nil sampler), for reporting the
// effective rate back to the operator.
func (s *TraceSampler) Every() uint64 {
	if s == nil {
		return 0
	}
	return s.stride.every
}
