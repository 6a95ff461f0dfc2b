package serving

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

// curveKey is a query's exact cache identity: x packed one bit per feature,
// 64 features per little-endian uint64 word (bits), plus a mix of the packed
// words (h), which picks the shard only. Packing is injective on {0,1}^d, so
// two vectors of one model's width share bits exactly when they are equal.
type curveKey struct {
	bits string
	h    uint64
}

// packX validates that every component of x is exactly 0 or 1 and packs it
// into its curve key. Any other value (0.5, 2, NaN, ±Inf) is ErrBadInput:
// packing would not be injective on it.
func packX(x []float64) (curveKey, error) {
	buf := make([]byte, (len(x)+63)/64*8)
	for i, v := range x {
		switch v {
		case 0:
		case 1:
			buf[i/8] |= 1 << (i % 8)
		default:
			return curveKey{}, fmt.Errorf("%w: x[%d] = %v, encoded features must be binary 0/1", ErrBadInput, i, v)
		}
	}
	var h uint64
	for i := 0; i < len(buf); i += 8 {
		h = mix64(h ^ binary.LittleEndian.Uint64(buf[i:]))
	}
	return curveKey{bits: string(buf), h: h}, nil
}

// mix64 is the splitmix64 finalizer: it spreads low-entropy packed words
// across shards.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// cacheEntry is an LRU node payload: one query's estimate curve, TauMax+1
// values, owned by the entry (never a view into a batch matrix).
type cacheEntry struct {
	bits  string
	curve []float64
}

// curveCache is a sharded LRU over estimate curves, one per packed x. Shards
// are selected by key hash so concurrent lookups rarely contend on one mutex.
// A generation counter implements invalidation-on-swap: Invalidate bumps the
// generation and clears every shard, and Put drops curves whose generation
// snapshot is stale, so a batch computed against a replaced model can never
// re-populate the cache afterwards.
type curveCache struct {
	shards []cacheShard
	mask   uint64
	gen    atomic.Uint64
}

type cacheShard struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List
	byBits map[string]*list.Element
}

// newCurveCache builds a cache of ~entries curves split over shards (rounded
// up to a power of two); entries <= 0 disables it (nil).
func newCurveCache(entries, shards int) *curveCache {
	if entries <= 0 {
		return nil
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := (entries + n - 1) / n
	c := &curveCache{shards: make([]cacheShard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i] = cacheShard{cap: perShard, ll: list.New(), byBits: make(map[string]*list.Element)}
	}
	return c
}

func (c *curveCache) shard(k curveKey) *cacheShard {
	return &c.shards[k.h&c.mask]
}

// Gen returns the current generation. Snapshot it before running a forward
// pass and hand it to Put.
func (c *curveCache) Gen() uint64 { return c.gen.Load() }

// Get returns the cached curve for k, refreshing its LRU position.
func (c *curveCache) Get(k curveKey) ([]float64, bool) {
	s := c.shard(k)
	s.mu.Lock()
	var curve []float64
	el, ok := s.byBits[k.bits]
	if ok {
		s.ll.MoveToFront(el)
		curve = el.Value.(*cacheEntry).curve
	}
	s.mu.Unlock()
	if !ok {
		mCacheMisses.Inc()
		return nil, false
	}
	mCacheHits.Inc()
	return curve, true
}

// Put inserts curve under k, evicting the shard's least-recently-used entry
// when full. The write is dropped if gen is stale (the cache was invalidated
// after the caller snapshotted it). A key already cached keeps its curve:
// within one generation both came from the same model.
func (c *curveCache) Put(k curveKey, curve []float64, gen uint64) {
	if c.gen.Load() != gen {
		return
	}
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	// Re-check under the shard lock: Invalidate holds every shard lock while
	// clearing, so a stale writer cannot slip in between the clear and the
	// generation bump.
	if c.gen.Load() != gen {
		return
	}
	if el, ok := s.byBits[k.bits]; ok {
		s.ll.MoveToFront(el)
		return
	}
	if s.ll.Len() >= s.cap {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.byBits, oldest.Value.(*cacheEntry).bits)
		mCacheEvicts.Inc()
	}
	s.byBits[k.bits] = s.ll.PushFront(&cacheEntry{bits: k.bits, curve: curve})
}

// Invalidate clears every shard and bumps the generation, racing correctly
// with concurrent Puts holding an older generation.
func (c *curveCache) Invalidate() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.ll.Init()
		s.byBits = make(map[string]*list.Element)
	}
	c.gen.Add(1)
	for i := range c.shards {
		c.shards[i].mu.Unlock()
	}
}

// Len returns the total number of cached curves (test/ops helper).
func (c *curveCache) Len() int {
	var n int
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}
