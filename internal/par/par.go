// Package par provides the shared worker budget behind PGB's two layers
// of parallelism: the grid/profile schedulers in internal/core and the
// graph kernels (triangle counting, the BFS sweep) in internal/stats.
// One Budget represents one allowance of concurrent workers; every layer
// draws helper workers from the same allowance, so a run configured with
// N workers never executes more than N CPU-bound goroutines at once no
// matter how the layers nest (DESIGN.md §2, §8).
//
// The budget never affects results — kernels and schedulers built on it
// are worker-count-invariant by construction — it only bounds how much
// hardware a run may occupy.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker request: n > 0 is kept, and 0 (or negative)
// selects GOMAXPROCS — the one default of every Workers knob.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Queue returns a claim function that hands out each index in [0, n)
// exactly once across concurrent callers — the shared work queue every
// Do worker drains. The assignment of indices to workers is
// scheduling-dependent; callers must ensure (as the kernels in
// internal/stats do, via exact-integer merges) that it cannot affect
// results.
func Queue(n int) func() (int, bool) {
	var next atomic.Int64
	return func() (int, bool) {
		i := int(next.Add(1) - 1)
		return i, i < n
	}
}

// ForEachBlock partitions [0, n) into fixed-size blocks of the given
// grain and runs fn once per block, on the calling goroutine plus up to
// workers−1 helpers drawn from budget b (nil b spawns the helpers
// unconditionally). The block decomposition depends only on n and grain —
// never on the worker count or the schedule — so a pass whose merges are
// exact (disjoint writes, or integer-valued accumulation) produces
// identical results at any parallelism; that invariant is the caller's
// responsibility, exactly as with Queue. fn must be safe for concurrent
// invocation on disjoint blocks.
func ForEachBlock(b *Budget, workers, n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	blocks := (n + grain - 1) / grain
	if workers > blocks {
		workers = blocks
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	claim := Queue(blocks)
	b.Do(workers-1, func() {
		for i, ok := claim(); ok; i, ok = claim() {
			lo := i * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
	})
}

// Budget is a counted allowance of helper workers, shared between
// nested parallel layers. The goroutine that owns a computation is
// never counted: a Budget of size N−1 plus the caller yields at most N
// concurrent workers.
//
// A nil *Budget is valid and means "no shared allowance": Do spawns all
// requested helpers unconditionally. Methods are safe for concurrent use.
type Budget struct {
	tokens chan struct{}
}

// NewBudget returns a budget of n helper tokens; n <= 0 yields a budget
// that never grants a helper (callers still run their own work inline).
func NewBudget(n int) *Budget {
	if n < 0 {
		n = 0
	}
	b := &Budget{tokens: make(chan struct{}, n)}
	for i := 0; i < n; i++ {
		b.tokens <- struct{}{}
	}
	return b
}

// Do runs worker on the calling goroutine and on up to extra concurrent
// helpers. Each helper first claims a token from the budget — blocking
// until one frees up or the caller's own worker finishes — so nested
// Do calls across goroutines share the one allowance: a helper slot
// released by a finished layer is immediately claimable by a kernel
// still running in another. Do returns when the caller's worker and
// every started helper have returned.
//
// worker must be safe to run concurrently with itself; instances
// typically pull items off a shared atomic queue until it drains, which
// also makes a late-starting helper harmless (it finds the queue empty
// and returns).
func (b *Budget) Do(extra int, worker func()) {
	if extra <= 0 {
		worker()
		return
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < extra; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b != nil {
				select {
				case <-b.tokens:
				case <-done:
					return
				}
				defer func() { b.tokens <- struct{}{} }()
			}
			worker()
		}()
	}
	worker()
	// The caller's worker has drained the queue: release helpers still
	// waiting on a token. Helpers already running finish via wg.
	close(done)
	wg.Wait()
}
