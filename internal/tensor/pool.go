package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The package keeps one persistent worker pool shared by every parallel
// kernel and by the data-parallel training engine in internal/core. Pool
// goroutines are spawned lazily on first parallel dispatch and then live for
// the life of the process, so steady-state dispatch costs one queue append
// and one condition-variable signal per task instead of a goroutine spawn.
//
// The pool is "help-first": a caller that dispatches N tasks runs one of
// them inline and then drains further queued tasks itself until its own
// tasks are done. Because a waiting caller always makes progress on whatever
// work is queued, nested dispatch (a pool task that itself calls RunParts,
// e.g. a training shard whose Dense layers call the parallel kernels) can
// never deadlock, even if the pool has zero free goroutines.
var pool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []func()
	started int // background goroutines spawned so far
	idle    int // of those, how many are parked waiting for work
}

// maxPoolGoroutines bounds the background goroutine count; tasks beyond it
// queue and are drained by helping callers. The bound is a backstop against
// runaway SetWorkers values, far above any sensible shard count.
const maxPoolGoroutines = 64

// workerCount is the target parallel width of the kernels (not a bound on
// RunParts, whose part count the caller fixes for determinism).
var (
	workerMu    sync.Mutex
	workerCount = runtime.GOMAXPROCS(0)
)

// SetWorkers sets how many row blocks the parallel kernels split work into
// and returns the previous value. n < 1 resets to runtime.GOMAXPROCS. It
// does not resize the pool's goroutines; those grow on demand (bounded), so
// a worker count above the machine width only costs scheduling, never
// correctness.
func SetWorkers(n int) int {
	workerMu.Lock()
	defer workerMu.Unlock()
	prev := workerCount
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	workerCount = n
	return prev
}

// Workers returns the current parallel width of the kernels.
func Workers() int {
	workerMu.Lock()
	defer workerMu.Unlock()
	return workerCount
}

// ensureGoroutines (pool.mu held) grows the background pool until `need`
// tasks could run concurrently, counting currently idle workers.
func ensureGoroutines(need int) {
	target := pool.started - pool.idle + need
	if target > maxPoolGoroutines {
		target = maxPoolGoroutines
	}
	for pool.started < target {
		pool.started++
		go func() {
			pool.mu.Lock()
			for {
				for len(pool.queue) == 0 {
					pool.idle++
					pool.cond.Wait()
					pool.idle--
				}
				task := pop()
				pool.mu.Unlock()
				task()
				pool.mu.Lock()
			}
		}()
	}
}

// tryRunOne pops and runs one queued task, reporting whether it found any.
func tryRunOne() bool {
	pool.mu.Lock()
	if len(pool.queue) == 0 {
		pool.mu.Unlock()
		return false
	}
	task := pop()
	pool.mu.Unlock()
	task()
	return true
}

// pop (pool.mu held, queue non-empty) removes and returns the newest task.
// It clears the slot it leaves: the queue's backing array outlives the
// reslice, and a stale closure there would keep everything it captures
// alive until a later dispatch overwrites it.
func pop() func() {
	last := len(pool.queue) - 1
	task := pool.queue[last]
	pool.queue[last] = nil
	pool.queue = pool.queue[:last]
	return task
}

// RunParts executes fn(0..parts-1) concurrently on the pool and returns when
// all parts finish. The caller runs part 0 inline and then helps drain the
// queue, so RunParts is safe to call from inside a pool task. Each part index
// runs exactly once regardless of pool size, which is what lets callers tie
// deterministic sharding to a fixed part count.
func RunParts(parts int, fn func(part int)) {
	if parts <= 1 {
		if parts == 1 {
			fn(0)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(parts - 1)
	pool.mu.Lock()
	if pool.cond == nil {
		pool.cond = sync.NewCond(&pool.mu)
	}
	ensureGoroutines(parts - 1)
	for k := 1; k < parts; k++ {
		k := k
		pool.queue = append(pool.queue, func() {
			defer wg.Done()
			fn(k)
		})
	}
	pool.mu.Unlock()
	pool.cond.Broadcast()

	fn(0)
	// Help: drain whatever is queued (our tasks or anyone's — progress
	// either way) before blocking on the remainder.
	for tryRunOne() {
	}
	wg.Wait()
}

// RunAll runs every job once over the pool, at most Workers() at a time,
// and returns when all are done. Each worker claims the next unclaimed job,
// so jobs of uneven size still spread across the workers. At one worker
// (or one job) the jobs run in order on the calling goroutine. Jobs must be
// safe to run concurrently.
func RunAll(jobs ...func()) {
	var next atomic.Int64
	RunParts(min(Workers(), len(jobs)), func(int) {
		for i := next.Add(1) - 1; i < int64(len(jobs)); i = next.Add(1) - 1 {
			jobs[i]()
		}
	})
}

// ParallelRows splits [0, n) into up to Workers() contiguous blocks of at
// least minBlock rows each and runs fn over them concurrently. Below the
// threshold (or at one worker) it runs fn(0, n) inline, so small inputs pay
// no dispatch overhead. fn must be safe to run concurrently on disjoint
// ranges.
func ParallelRows(n, minBlock int, fn func(lo, hi int)) {
	w := Workers()
	if minBlock < 1 {
		minBlock = 1
	}
	if w > n/minBlock {
		w = n / minBlock
	}
	if w <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	bounds := ShardBounds(n, w)
	RunParts(w, func(k int) {
		fn(bounds[k], bounds[k+1])
	})
}

// ShardBounds splits [0, n) into parts contiguous near-equal blocks and
// returns the parts+1 boundaries (block k is [bounds[k], bounds[k+1])). The
// split depends only on n and parts, which is what deterministic sharding
// builds on. Blocks may be empty when n < parts.
func ShardBounds(n, parts int) []int {
	if parts < 1 {
		parts = 1
	}
	base, rem := n/parts, n%parts
	bounds := make([]int, parts+1)
	for k := 0; k < parts; k++ {
		sz := base
		if k < rem {
			sz++
		}
		bounds[k+1] = bounds[k] + sz
	}
	return bounds
}
