package main

import (
	"errors"
	"runtime"
	"time"

	"clustermarket/internal/core"
	"clustermarket/internal/market"
)

// epochs drives Loop.Tick and the live check after it, as marketd's loop
// and OnTick hook do, and keeps the tick durations.
type epochs struct {
	loop  *market.Loop
	ex    *market.Exchange
	clear dist
	live  liveChecks
	// snapTicks holds the durations of ticks that wrote a snapshot.
	snapTicks dist
}

func newEpochs(ex *market.Exchange) (*epochs, error) {
	e := &epochs{}
	return e, e.attach(ex)
}

// attach points the epochs at ex; the durations taken so far are kept.
func (e *epochs) attach(ex *market.Exchange) error {
	// The loop is ticked by the caller; its own timer is never started.
	loop, err := market.NewLoop(ex, time.Second)
	if err != nil {
		return err
	}
	e.loop, e.ex = loop, ex
	return nil
}

// tick runs one epoch boundary. On a traced pass it first clears the
// same batch from outside, timed per layer. Idle ticks (empty book) are
// not samples. It returns the auction record, nil when idle.
func (e *epochs) tick(r *run) *market.AuctionRecord {
	var sp *split
	var snaps int64
	if r.traced() {
		var err error
		if sp, err = outside(e.ex); err != nil {
			r.check(false, "outside clear: %v", err)
		}
		snaps = r.tr.snapCount.Load()
	}
	r.attempted++
	start := time.Now()
	rec, err := e.loop.Tick()
	end := time.Now()
	if err != nil && !errors.Is(err, core.ErrNoConvergence) {
		r.failed++
		r.check(false, "tick: %v", err)
	}
	if rec == nil {
		return nil
	}
	e.clear.addDur(end.Sub(start))
	if r.traced() {
		r.tr.tickSplit(sp, rec, start, end)
		if r.tr.snapCount.Load() != snaps {
			e.snapTicks.addDur(end.Sub(start))
		}
	}
	e.live.run(r, e.ex)
	return rec
}

// report sets the live-check metrics and the p50 duration of ticks that
// wrote a snapshot.
func (e *epochs) report(r *run) {
	e.live.report(r)
	r.setLayer("journal.snapshot_tick_ms.p50", "ms", e.snapTicks.p50())
}

// mallocs returns the number of heap allocations made so far.
func mallocs() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Mallocs)
}

// probe admits n generated orders through Exchange.SubmitProduct from a
// single goroutine while nothing else runs, timing each call and
// counting heap allocations per admitted order.
func probe(r *run, ex *market.Exchange, g *generator, n int) []int {
	specs := make([]orderSpec, n)
	for i := range specs {
		specs[i] = g.next()
	}
	ids := make([]int, 0, n)
	before := mallocs()
	for _, o := range specs {
		start := time.Now()
		order, err := o.submit(ex)
		d := time.Since(start)
		r.attempted++
		if err != nil {
			r.failed++
			continue
		}
		r.tr.marketSubmitUs.add(float64(d) / float64(time.Microsecond))
		ids = append(ids, order.ID)
	}
	r.tr.marketSubmitAlloc = ratio(mallocs()-before, float64(len(ids)))
	return ids
}
