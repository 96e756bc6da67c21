package exec

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// RunParallel executes fn(ctx, p) for every p in [0, n), running at
// most workers at once (workers <= 0 means one per partition, the
// paper's thread-per-AMP model). The calling goroutine is the first
// worker: it starts workers-1 goroutines and runs the same claim loop
// itself, so a width of 1 starts none and claims the partitions in
// order. It is the executor's parallel scan core and makes three
// guarantees the bare fan-out it replaces did not:
//
//   - First failure cancels the shared context, so sibling partition
//     scans observe it between rows and stop early instead of running
//     to completion; partitions not yet started are never started.
//   - A panic inside fn — a buggy UDF, a bad expression — is recovered
//     and reported as that partition's error; user code cannot kill
//     the process.
//   - Each worker keeps its error local until the final merge; nothing
//     shared is written without synchronization.
//
// Every goroutine it starts has returned when it returns.
func RunParallel(ctx context.Context, workers, n int, fn func(ctx context.Context, p int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 || workers > n {
		workers = n
	}
	f := &fanout{n: n, fn: fn}
	f.ctx, f.cancel = context.WithCancel(ctx)
	defer f.cancel()
	f.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer f.wg.Done()
			f.claim()
		}()
	}
	f.claim()
	f.wg.Wait() // the workers have returned: f.err is settled
	if f.err != nil {
		return f.err
	}
	// No partition failed; surface an outside cancellation if any.
	return ctx.Err()
}

// fanout is one RunParallel call's shared state: the partitions its
// workers claim in order and the first failure.
type fanout struct {
	ctx    context.Context
	cancel context.CancelFunc
	n      int
	fn     func(ctx context.Context, p int) error
	next   atomic.Int64
	wg     sync.WaitGroup
	mu     sync.Mutex
	err    error
}

// claim runs partitions until none is left, the context is done or one
// fails; the first failure is kept and cancels the rest.
func (f *fanout) claim() {
	for {
		p := int(f.next.Add(1)) - 1
		if p >= f.n || f.ctx.Err() != nil {
			return
		}
		if err := f.call(p); err != nil {
			f.mu.Lock()
			if f.err == nil {
				f.err = err
			}
			f.mu.Unlock()
			f.cancel()
			return
		}
	}
}

// call runs partition p, reporting a panic as its error.
func (f *fanout) call(p int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("exec: panic in partition %d: %v\n%s", p, r, debug.Stack())
		}
	}()
	return f.fn(f.ctx, p)
}
