// Package runner executes independent simulation jobs on a bounded worker
// pool while keeping results deterministic: results always come back in
// submission order, regardless of which worker finished first.
//
// The determinism contract the experiment layer relies on: each job must
// be self-contained (its own seeded RNGs, its own simevent.Engine, no
// shared mutable state), so running N jobs on one worker or on N workers
// produces byte-identical results. The pool only changes wall-clock time.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Job is one unit of independent work. The context is cancelled once any
// other job in the same set has failed; long jobs may poll it to stop
// early, but ignoring it is safe.
type Job func(ctx context.Context) (any, error)

// Result pairs one job's value with its error. Jobs skipped because the
// set was already cancelled carry the context's error.
type Result struct {
	Value any
	Err   error
}

// Pool runs job sets on at most Workers concurrent goroutines. Pools are
// stateless and may be shared; the zero value is not usable, call New.
type Pool struct {
	workers int
}

// New returns a pool of the given width. workers <= 0 selects
// runtime.GOMAXPROCS(0).
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers reports the pool width.
func (p *Pool) Workers() int { return p.workers }

// RunSet executes jobs concurrently and returns their results in
// submission order. On failure the returned error is the one from the
// lowest-indexed failing job (so the error, like the results, does not
// depend on scheduling), and the remaining unstarted jobs are skipped.
func (p *Pool) RunSet(ctx context.Context, jobs []Job) ([]Result, error) {
	results := make([]Result, len(jobs))
	err := p.forEach(ctx, len(jobs), func(ctx context.Context, i int) (err error) {
		defer func() {
			// A panicking job must fail its set like any other error —
			// and leave its Result carrying the converted error too.
			if r := recover(); r != nil {
				err = panicErr(i, r)
				results[i] = Result{Err: err}
			}
		}()
		v, err := jobs[i](ctx)
		results[i] = Result{Value: v, Err: err}
		return err
	}, func(i int, err error) { results[i] = Result{Err: err} })
	return results, err
}

// panicErr converts a recovered panic in job i into an error carrying the
// panic value and the goroutine's stack, so the failure is debuggable
// after it has crossed the pool's error path.
func panicErr(i int, r any) error {
	buf := make([]byte, 64<<10)
	buf = buf[:runtime.Stack(buf, false)]
	return fmt.Errorf("runner: job %d panicked: %v\n%s", i, r, buf)
}

// RunSet executes jobs on a default-width pool with a background context.
func RunSet(jobs []Job) ([]Result, error) {
	return New(0).RunSet(context.Background(), jobs)
}

// Map runs fn for every index in [0, n) on a pool of the given width and
// returns the values in index order. On failure it returns the error of
// the lowest failing index. Map is the typed workhorse behind the
// experiment fan-outs.
func Map[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := New(workers).forEach(ctx, n, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MaxBackoff caps Retry's exponential backoff between attempts. Without
// the cap the doubling eventually overflows time.Duration (a 1s base
// flips negative around the 33rd attempt), and a negative delay skips
// the sleep entirely — turning the tail of a long retry schedule into a
// hot loop exactly when the system is already struggling.
const MaxBackoff = time.Minute

// retryDelay computes the sleep before attempt a+1: backoff doubled a
// times, clamped to MaxBackoff, never overflowing. Non-positive backoff
// stays non-positive (no sleep).
func retryDelay(backoff time.Duration, a int) time.Duration {
	if backoff <= 0 {
		return backoff
	}
	delay := backoff
	for i := 0; i < a && delay < MaxBackoff; i++ {
		delay *= 2
	}
	if delay > MaxBackoff {
		return MaxBackoff
	}
	return delay
}

// Retry runs fn up to attempts times, sleeping backoff, 2*backoff, ... in
// between (doubling each time, clamped at MaxBackoff). It returns nil on
// the first success and the last error otherwise. A cancelled context
// stops the retries immediately — its error is returned rather than
// fn's, so a user interrupt is never misreported as a run failure. Retry
// exists for watchdog-aborted runs: a run that tripped a wall-clock or
// stall limit on a loaded machine often completes cleanly on a quieter
// retry, while a deterministic failure just fails again and surfaces
// quickly.
func Retry(ctx context.Context, attempts int, backoff time.Duration, fn func(ctx context.Context) error) error {
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for a := 0; a < attempts; a++ {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if err = fn(ctx); err == nil {
			return nil
		}
		if a == attempts-1 {
			break
		}
		delay := retryDelay(backoff, a)
		if delay > 0 {
			t := time.NewTimer(delay)
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
		}
	}
	return err
}

// forEach is the scheduling core: a feeder channel of indices, `workers`
// drainers, first-error-by-index propagation, and cancellation of the
// in-flight context as soon as any job fails.
//
// Indices are handed out in order, so every job below a failing one has
// already been dispatched when it fails; those jobs still run, and only
// jobs above the lowest failure (or every job, once the caller's context
// is done) are skipped: fn is not called and skipped, when non-nil,
// receives the context's error. A job that returns context.Canceled only
// because the pool cancelled it is not a failure of its own. Together
// these make the returned error the lowest failing index's whatever the
// scheduling.
func (p *Pool) forEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error, skipped func(i int, err error)) error {
	if n == 0 {
		return ctx.Err()
	}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		firstIdx = n
		firstErr error
	)
	record := func(i int, err error) {
		mu.Lock()
		induced := errors.Is(err, context.Canceled) && ctx.Err() != nil && parent.Err() == nil
		if i < firstIdx && !induced {
			firstIdx, firstErr = i, err
		}
		cancel()
		mu.Unlock()
	}
	// skip reports why job i must not start, or nil if it should run.
	skip := func(i int) error {
		if err := parent.Err(); err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		if i > firstIdx {
			return ctx.Err()
		}
		return nil
	}

	workers := p.workers
	if workers > n {
		workers = n
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	call := func(i int) (err error) {
		defer func() {
			// A panic anywhere in a job (simulation bug, bad config deep
			// in a model) is converted to an error on the same
			// lowest-index-first path as ordinary failures, instead of
			// killing the whole process from a worker goroutine.
			if r := recover(); r != nil {
				err = panicErr(i, r)
			}
		}()
		if err := skip(i); err != nil {
			if skipped != nil {
				skipped(i, err)
			}
			return err
		}
		return fn(ctx, i)
	}
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := call(i); err != nil {
					record(i, err)
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return firstErr
}
