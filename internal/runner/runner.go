// Package runner is the parallel execution engine behind the experiment
// harness and the miraged server: a bounded worker pool that runs a slice of
// named, independent simulation jobs concurrently and collates their results
// in submission order.
//
// Determinism is the design constraint. Every simulation in this repository
// derives all of its randomness from a per-job seed string (internal/xrand),
// so a job's result depends only on its own inputs — never on scheduling.
// Because Run writes results into a slice indexed by submission order, any
// arithmetic the caller performs over the collated slice happens in exactly
// the order the serial loop would have used, making parallel output
// bit-identical to serial output (see DESIGN.md §8 and
// TestParallelMatchesSerial at the repository root).
//
// Error handling mirrors a serial loop: the returned error is the failure
// with the lowest job index, which is the same error a serial loop would
// have stopped at. The first observed failure also cancels jobs that have
// not started yet; jobs already running finish (simulations cannot be
// interrupted mid-run).
//
// Cancellation is cooperative and job-granular: when the context passed to
// Run is cancelled, no further jobs are scheduled, jobs already running
// finish, and Run returns a *Canceled partial-result error recording how far
// it got. A *telemetry.Registry attached via WithTelemetry makes the
// scheduling observable ("runner.jobs.completed" / "runner.jobs.cancelled"),
// which the server's cancellation tests assert on.
//
// Outside the optional telemetry hook the package is stdlib-only: context,
// sync, channels and runtime.GOMAXPROCS.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Job is one named unit of work producing a T.
type Job[T any] struct {
	// Name labels the job in errors ("sweep/sw-8-1", "profile/bzip2").
	Name string
	// Run computes the job's result. It must be safe to call concurrently
	// with other jobs' Run functions.
	Run func() (T, error)
}

// JobError is a job failure, carrying the job's name and submission index.
type JobError struct {
	Name  string
	Index int
	Err   error
}

// Error implements error.
func (e *JobError) Error() string {
	return fmt.Sprintf("runner: job %q (#%d): %v", e.Name, e.Index, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *JobError) Unwrap() error { return e.Err }

// Canceled is the partial-result error Run returns when its context is
// cancelled before every job has run: Completed of Total jobs finished, the
// rest were never scheduled. Cause is the context's error, so
// errors.Is(err, context.Canceled / context.DeadlineExceeded) works.
type Canceled struct {
	Completed int
	Total     int
	Cause     error
}

// Error implements error.
func (e *Canceled) Error() string {
	return fmt.Sprintf("runner: canceled after %d/%d jobs: %v", e.Completed, e.Total, e.Cause)
}

// Unwrap exposes the context error to errors.Is/As.
func (e *Canceled) Unwrap() error { return e.Cause }

// telemetryKey carries an optional *telemetry.Registry through a context.
type telemetryKey struct{}

// WithTelemetry returns a context carrying reg; Run invocations under it
// count scheduling on the registry's "runner.jobs.completed" and
// "runner.jobs.cancelled" counters. The association survives singleflight
// re-parenting (Cache.DoContext detaches cancellation, not values).
func WithTelemetry(ctx context.Context, reg *telemetry.Registry) context.Context {
	if reg == nil {
		return ctx
	}
	return context.WithValue(ctx, telemetryKey{}, reg)
}

// RegistryFrom recovers the registry attached by WithTelemetry; a nil return
// is fine — nil registries hand out nil instruments whose methods are no-ops.
// Exported so layers wrapped around a flight (the chaos backend marking
// injected faults, the server's span recorder) can count on the same
// registry the request was admitted under.
func RegistryFrom(ctx context.Context) *telemetry.Registry {
	reg, _ := ctx.Value(telemetryKey{}).(*telemetry.Registry)
	return reg
}

// Run executes jobs on up to `workers` goroutines and returns their results
// in submission order: results[i] is jobs[i]'s result regardless of which
// worker ran it or when it finished.
//
// workers <= 0 selects runtime.GOMAXPROCS(0); workers == 1 runs the jobs
// serially on the calling goroutine. On failure Run returns a *JobError
// wrapping the lowest-indexed job error — the same job a serial loop would
// have stopped at — and cancels jobs that have not started; in-flight jobs
// run to completion but their results are discarded.
//
// Cancelling ctx stops scheduling: jobs not yet started are skipped, running
// jobs finish, and Run returns a *Canceled error carrying the completed/total
// counts (job failures observed before the cancellation take precedence).
func Run[T any](ctx context.Context, workers int, jobs []Job[T]) ([]T, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(jobs)
	if n == 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		return runSerial(ctx, jobs)
	}

	reg := RegistryFrom(ctx)
	cDone := reg.Counter("runner.jobs.completed")
	cSkip := reg.Counter("runner.jobs.cancelled")

	results := make([]T, n)
	var (
		mu        sync.Mutex
		firstErr  *JobError
		completed atomic.Int64
	)
	// cancelled reports whether job i should be skipped: only a recorded
	// failure at a LOWER index cancels it. Skipping solely "after any
	// failure" would be racy semantics: a higher-indexed job can fail first
	// and suppress the job the serial loop would actually have stopped at.
	// With this rule every job up to the lowest possible failure index still
	// runs, so the reported error index provably equals the serial stop
	// point, while everything past the failure is cancelled.
	cancelled := func(i int) bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil && firstErr.Index < i
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if cancelled(i) || ctx.Err() != nil {
					continue // skip, keep draining
				}
				v, err := jobs[i].Run()
				if err != nil {
					mu.Lock()
					if firstErr == nil || i < firstErr.Index {
						firstErr = &JobError{Name: jobs[i].Name, Index: i, Err: err}
					}
					mu.Unlock()
					continue
				}
				results[i] = v
				completed.Add(1)
				cDone.Inc()
			}
		}()
	}
	// Feed indexes in submission order; workers drain the channel even after
	// a failure, so this never blocks indefinitely. A context cancellation
	// stops the feed — that is the "stop scheduling new jobs" contract.
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if done := int(completed.Load()); done < n {
		if err := ctx.Err(); err != nil {
			cSkip.Add(int64(n - done))
			return nil, &Canceled{Completed: done, Total: n, Cause: err}
		}
	}
	return results, nil
}

// runSerial is the workers==1 path and the reference semantics: run each job
// in order, stop at the first error or at the cancellation point.
func runSerial[T any](ctx context.Context, jobs []Job[T]) ([]T, error) {
	reg := RegistryFrom(ctx)
	cDone := reg.Counter("runner.jobs.completed")
	cSkip := reg.Counter("runner.jobs.cancelled")
	results := make([]T, len(jobs))
	for i := range jobs {
		if err := ctx.Err(); err != nil {
			cSkip.Add(int64(len(jobs) - i))
			return nil, &Canceled{Completed: i, Total: len(jobs), Cause: err}
		}
		v, err := jobs[i].Run()
		if err != nil {
			return nil, &JobError{Name: jobs[i].Name, Index: i, Err: err}
		}
		results[i] = v
		cDone.Inc()
	}
	return results, nil
}

// Map runs f over every item with bounded parallelism and returns the
// results in item order. name labels jobs for errors; nil derives "job-i".
func Map[S, T any](ctx context.Context, workers int, items []S, name func(i int, item S) string, f func(i int, item S) (T, error)) ([]T, error) {
	jobs := make([]Job[T], len(items))
	for i := range items {
		i, item := i, items[i]
		jn := fmt.Sprintf("job-%d", i)
		if name != nil {
			jn = name(i, item)
		}
		jobs[i] = Job[T]{Name: jn, Run: func() (T, error) { return f(i, item) }}
	}
	return Run(ctx, workers, jobs)
}
