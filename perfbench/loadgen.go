package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is one open-loop request's timing.
type outcome struct {
	// latency runs from the request's due time to the end of its
	// response, so time a request spent queued behind a stalled one is
	// charged to it.
	latency time.Duration
	// late is how long after its due time the request was sent.
	late time.Duration
	err  error
	sent bool
}

// openLoop issues requests on a fixed schedule: request i is due at
// start + i·gap, whether or not earlier requests have completed. Workers
// goroutines take requests in order; a worker that falls behind sends
// late, and the lateness counts in the request's latency. It stops after
// n requests (n < 0: no limit) or when ctx ends, and returns the
// outcomes of the requests it sent, indexed by request number.
func openLoop(ctx context.Context, start time.Time, gap time.Duration, n, workers int, do func(i int) error) []outcome {
	var (
		next atomic.Int64
		mu   sync.Mutex
		outs []outcome
		wg   sync.WaitGroup
	)
	if n > 0 {
		outs = make([]outcome, n)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if n >= 0 && i >= n {
					return
				}
				due := start.Add(time.Duration(i) * gap)
				if wait := time.Until(due); wait > 0 {
					t := time.NewTimer(wait)
					select {
					case <-ctx.Done():
						t.Stop()
						return
					case <-t.C:
					}
				} else if ctx.Err() != nil {
					return
				}
				sent := time.Now()
				err := do(i)
				o := outcome{latency: time.Since(due), late: sent.Sub(due), err: err, sent: true}
				mu.Lock()
				for len(outs) <= i {
					outs = append(outs, outcome{})
				}
				outs[i] = o
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	// Trim requests never sent because ctx ended first.
	last := len(outs)
	for last > 0 && !outs[last-1].sent {
		last--
	}
	return outs[:last]
}
