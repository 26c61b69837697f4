package scenario

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// errSkipped marks tasks abandoned after an earlier task failed. Tasks
// are claimed in index order, so a skipped index is always preceded by a
// genuinely failed one; the ordered scan in RunOrdered therefore never
// surfaces this sentinel.
var errSkipped = errors.New("scenario: run skipped after earlier error")

// RunOrdered is the ordered worker pool behind RunSeedsObserved and the
// experiments engine. It executes run(0..n-1) on up to workers goroutines
// (<= 0 means runtime.GOMAXPROCS(0)) and calls done for each index in
// increasing order as results become available (streaming: done(i) fires
// as soon as runs 0..i have all finished, not after the whole batch), on
// the calling goroutine. The first error — from run, in index order, or
// from done — stops the pool and is returned; in-flight runs finish but
// unclaimed ones are skipped. run receives the claiming worker's index in
// [0, workers) so callers can keep per-worker state (a Workspace recycling
// simulator slabs between the runs one goroutine happens to claim);
// results must not depend on which worker runs what.
func RunOrdered[T any](workers, n int, run func(worker, i int) (T, error), done func(i int, v T) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	results := make([]T, n)
	errs := make([]error, n)
	completed := make(chan int, n) // buffered: workers never block
	var nextTask atomic.Int64
	nextTask.Store(-1)
	var stop atomic.Bool
	var wg sync.WaitGroup
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(nextTask.Add(1))
				if i >= n {
					return
				}
				if stop.Load() {
					errs[i] = errSkipped
				} else {
					results[i], errs[i] = run(w, i)
					if errs[i] != nil {
						stop.Store(true)
					}
				}
				completed <- i
			}
		}()
	}

	ready := make([]bool, n)
	next := 0
	for range n {
		ready[<-completed] = true
		for next < n && ready[next] {
			if errs[next] != nil {
				return errs[next]
			}
			if err := done(next, results[next]); err != nil {
				return err
			}
			next++
		}
	}
	return nil
}
