package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The package keeps one bounded worker pool shared by every parallel
// kernel. Parallelism is a token budget, not a fixed set of goroutines:
// a kernel that wants to fan out grabs as many spare tokens as it can
// without blocking, runs one chunk per token on a fresh goroutine, and
// computes the remainder inline. Under nesting (parallel client training
// above parallel matmuls) inner kernels simply find no spare tokens and
// run serially, so total compute goroutines stay bounded by the budget
// and the pool can never deadlock.
//
// Work splitting is by disjoint output-row panels and every kernel
// accumulates each output element in the same (ascending shared-index)
// order as its serial counterpart, so results are bit-for-bit identical
// whatever the token budget or the number of tokens actually won.

type workerPool struct {
	// extra counts in-flight borrowed workers; capacity is budget−1
	// (the caller's own goroutine is the implicit first worker).
	extra chan struct{}
}

var pool atomic.Pointer[workerPool]

func init() {
	SetParallelism(runtime.GOMAXPROCS(0))
}

// SetParallelism bounds the number of goroutines (including the caller)
// that a parallel kernel may use; n < 1 is treated as 1 (fully serial).
// The default is GOMAXPROCS at package initialization. The budget is
// global: concurrent kernels share it.
func SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	pool.Store(&workerPool{extra: make(chan struct{}, n-1)})
}

// Parallelism returns the current worker budget.
func Parallelism() int {
	return cap(pool.Load().extra) + 1
}

// spareWorker reports whether the pool has a token free right now. A
// kernel that sees none runs inline without building the closure
// ParallelRows would take, which escapes to the heap; a token taken
// between the check and the fan-out only makes ParallelRows run inline.
func spareWorker() bool {
	p := pool.Load()
	return len(p.extra) < cap(p.extra)
}

// ParallelRows runs fn over [0, rows) split into contiguous panels, one
// per worker the caller manages to borrow from the shared pool (plus the
// caller itself). With no spare tokens — or a single row — it degrades to
// fn(0, rows) inline. It is the one fan-out of the module: the tensor
// kernels, the compress quantizers and secretshare dividers, the
// trainer's clients, the recovery figures' trials and the X-layer tree's
// subgroups all borrow from the same budget. fn must only write state
// derived from its own row range, and its per-row results must not
// depend on how [0, rows) was split.
func ParallelRows(rows int, fn func(lo, hi int)) {
	p := pool.Load()
	want := cap(p.extra)
	if want > rows-1 {
		want = rows - 1
	}
	got := 0
	for got < want {
		select {
		case p.extra <- struct{}{}:
			got++
		default:
			want = 0 // no spare workers; stop asking
		}
	}
	if got == 0 {
		fn(0, rows)
		return
	}
	chunks := got + 1
	var wg sync.WaitGroup
	for c := 1; c < chunks; c++ {
		lo, hi := c*rows/chunks, (c+1)*rows/chunks
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer func() { <-p.extra }()
			fn(lo, hi)
		}(lo, hi)
	}
	fn(0, rows/chunks)
	wg.Wait()
}
