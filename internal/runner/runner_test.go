package runner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Results must come back in submission order even when later jobs finish
// first.
func TestRunSetOrdering(t *testing.T) {
	const n = 32
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = func(context.Context) (any, error) {
			// Earlier jobs sleep longer, so completion order inverts
			// submission order.
			time.Sleep(time.Duration(n-i) * time.Millisecond)
			return i, nil
		}
	}
	results, err := New(8).RunSet(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil || r.Value.(int) != i {
			t.Fatalf("result %d = (%v, %v), want (%d, nil)", i, r.Value, r.Err, i)
		}
	}
}

func TestMapOrdering(t *testing.T) {
	out, err := Map(context.Background(), 4, 100, func(_ context.Context, i int) (string, error) {
		return fmt.Sprintf("job-%d", i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 100 {
		t.Fatalf("got %d results, want 100", len(out))
	}
	for i, s := range out {
		if want := fmt.Sprintf("job-%d", i); s != want {
			t.Fatalf("out[%d] = %q, want %q", i, s, want)
		}
	}
}

// A failing job cancels the set: its error propagates, and jobs not yet
// started are skipped with the context error.
func TestErrorPropagationAndSkip(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	jobs := make([]Job, 64)
	for i := range jobs {
		i := i
		jobs[i] = func(ctx context.Context) (any, error) {
			ran.Add(1)
			if i == 3 {
				return nil, boom
			}
			time.Sleep(time.Millisecond)
			return i, nil
		}
	}
	results, err := New(2).RunSet(context.Background(), jobs)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if !errors.Is(results[3].Err, boom) {
		t.Fatalf("results[3].Err = %v, want %v", results[3].Err, boom)
	}
	if n := ran.Load(); n == 64 {
		t.Error("no jobs were skipped after the failure")
	}
	var skipped int
	for _, r := range results {
		if errors.Is(r.Err, context.Canceled) {
			skipped++
		}
	}
	if skipped == 0 {
		t.Error("expected at least one skipped job carrying context.Canceled")
	}
}

// When several jobs fail, the lowest-indexed failure wins regardless of
// completion order, keeping the reported error schedule-independent.
func TestFirstErrorByIndex(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	jobs := []Job{
		func(context.Context) (any, error) {
			time.Sleep(20 * time.Millisecond) // fails last
			return nil, errLow
		},
		func(context.Context) (any, error) { return nil, errHigh }, // fails first
	}
	_, err := New(2).RunSet(context.Background(), jobs)
	if !errors.Is(err, errLow) {
		t.Fatalf("err = %v, want lowest-indexed %v", err, errLow)
	}
}

// External cancellation stops the set and surfaces the context error.
func TestExternalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	jobs := make([]Job, 16)
	for i := range jobs {
		jobs[i] = func(ctx context.Context) (any, error) {
			once.Do(func() { close(started) })
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(5 * time.Second):
				return nil, errors.New("job outlived cancellation")
			}
		}
	}
	go func() {
		<-started
		cancel()
	}()
	_, err := New(2).RunSet(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestEmptySet(t *testing.T) {
	results, err := RunSet(nil)
	if err != nil || len(results) != 0 {
		t.Fatalf("empty set: results=%v err=%v", results, err)
	}
}

func TestPoolDefaults(t *testing.T) {
	if New(0).Workers() < 1 {
		t.Fatal("default pool width must be >= 1")
	}
	if w := New(3).Workers(); w != 3 {
		t.Fatalf("Workers() = %d, want 3", w)
	}
}

// A pool of width 1 runs jobs strictly sequentially in submission order.
func TestWidthOneIsSequential(t *testing.T) {
	var order []int
	jobs := make([]Job, 10)
	for i := range jobs {
		i := i
		jobs[i] = func(context.Context) (any, error) {
			order = append(order, i) // safe: single worker
			return nil, nil
		}
	}
	if _, err := New(1).RunSet(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("execution order %v not sequential", order)
		}
	}
}

// A panicking job becomes an error carrying the panic value and a stack
// trace, not a process crash, and the Result for that index carries it.
func TestPanicBecomesError(t *testing.T) {
	jobs := []Job{
		func(context.Context) (any, error) { return 1, nil },
		func(context.Context) (any, error) { panic("boom in job") },
	}
	results, err := New(1).RunSet(context.Background(), jobs)
	if err == nil {
		t.Fatal("panicking job must fail the set")
	}
	if !strings.Contains(err.Error(), "job 1 panicked: boom in job") {
		t.Errorf("error lacks panic context: %v", err)
	}
	if !strings.Contains(err.Error(), "runner_test.go") {
		t.Errorf("error lacks a stack trace: %v", err)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "panicked") {
		t.Errorf("result 1 should carry the panic error, got %v", results[1].Err)
	}
}

// With several panicking jobs the reported error is the lowest-indexed
// one, matching the pool's deterministic error contract. Map's recovery
// lives in the worker loop, so it is exercised separately from RunSet's.
func TestPanicLowestIndexWins(t *testing.T) {
	_, err := Map(context.Background(), 8, 6, func(_ context.Context, i int) (int, error) {
		if i%2 == 0 {
			panic(fmt.Sprintf("panic at %d", i))
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("panicking jobs must fail the map")
	}
	if !strings.Contains(err.Error(), "panic at 0") {
		t.Errorf("want the lowest-indexed panic, got: %v", err)
	}
}

// A lower-indexed job that stops because the pool cancelled it after a
// later job failed reports context.Canceled; that is a consequence of the
// failure, not a failure of its own, so the real error is returned.
func TestInducedCancelDoesNotMaskFailure(t *testing.T) {
	real := errors.New("real failure")
	_, err := Map(context.Background(), 2, 2, func(ctx context.Context, i int) (int, error) {
		if i == 1 {
			return 0, real
		}
		<-ctx.Done()
		return 0, ctx.Err()
	})
	if !errors.Is(err, real) {
		t.Fatalf("want the failing job's error, got %v", err)
	}
}
