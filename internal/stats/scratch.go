package stats

import "sync"

// Scratch is a reusable arena for the kernels' working arrays: the
// triangle pass's degree ranks, forward CSR and stamp plane,
// per-node counts, histograms, HyperANF register planes, and the three
// one-word-per-node MS-BFS bit planes (seen, frontier, next; the first
// two share the ANF register arrays). Kernels draw one Scratch per
// concurrent worker from a process-wide pool, so a grid run stops paying
// one O(n) allocation set per cell per kernel invocation.
//
// Ownership rules (DESIGN.md §11): a Scratch belongs to exactly one
// goroutine between getScratch and Release; the arrays it hands out are
// valid only until Release and must never be retained, returned, or
// shared across goroutines. Contents are undefined on acquisition —
// every accessor returns an uninitialised (or stale) slice of the
// requested length and the caller initialises what it reads. Slices
// obtained from a Scratch never travel into results: kernels copy into
// freshly allocated output before releasing.
type Scratch struct {
	i32a, i32b, i32c, i32d []int32
	i64a, i64b             []int64
	stamp                  []uint32
	f64a                   []float64
	u64a, u64b, u64c       []uint64
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// getScratch returns a pooled Scratch. Release it on the same goroutine
// when the kernel's use of its arrays ends.
func getScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// Release returns s to the pool. s must not be used afterwards.
func (s *Scratch) Release() { scratchPool.Put(s) }

// grow returns buf with length n, reallocating only when capacity is
// short. Grown capacity rounds up to the next power of two so repeated
// acquisitions across slightly different graph sizes converge instead of
// reallocating every time. Contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	c := 16
	for c < n {
		c <<= 1
	}
	return make([]T, n, c)
}

// Accessors: each returns a slice of length n backed by the arena,
// reallocating only on first growth. Distinct accessors return distinct
// arrays and may be used simultaneously; calling the same accessor twice
// returns the same backing array.

func (s *Scratch) rank(n int) []int32   { s.i32a = grow(s.i32a, n); return s.i32a }
func (s *Scratch) origOf(n int) []int32 { s.i32b = grow(s.i32b, n); return s.i32b }
func (s *Scratch) fwdNbr(n int) []int32 { s.i32c = grow(s.i32c, n); return s.i32c }
func (s *Scratch) i32scr(n int) []int32 { s.i32d = grow(s.i32d, n); return s.i32d }
func (s *Scratch) offs(n int) []int64   { s.i64a = grow(s.i64a, n); return s.i64a }
func (s *Scratch) counts(n int) []int64 { s.i64b = grow(s.i64b, n); return s.i64b }
func (s *Scratch) stamps(n int) []uint32 {
	s.stamp = grow(s.stamp, n)
	return s.stamp
}
func (s *Scratch) floats(n int) []float64 {
	s.f64a = grow(s.f64a, n)
	return s.f64a
}
func (s *Scratch) regsA(n int) []uint64 { s.u64a = grow(s.u64a, n); return s.u64a }
func (s *Scratch) regsB(n int) []uint64 { s.u64b = grow(s.u64b, n); return s.u64b }
func (s *Scratch) bitPlanes(n int) (seen, frontier, next []uint64) {
	s.u64a, s.u64b, s.u64c = grow(s.u64a, n), grow(s.u64b, n), grow(s.u64c, n)
	return s.u64a, s.u64b, s.u64c
}
