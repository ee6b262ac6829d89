package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"time"
)

// long-uptime: state that grows with uptime. Small epochs of
// library-admitted orders run back to back on the served, journaled
// market with marketd's defaults (fsync every record, a snapshot every
// 64 auctions), with marketd's live health check after every tick and
// one dashboard connection polling at a fixed rate. The run ends with a
// timed restart. Snapshot ticks are one in 64, and the run is sized so
// the clear tail lands on them: the tail shows how the snapshot stall
// grows with uptime.
const (
	luClusters = 8
	luMachines = 20
	luTeams    = 64
	luPerEpoch = 100
	luPollRate = 100 // dashboard GETs per second, one connection
	// luCycle is market.Config's default SnapshotEvery, which the
	// workload keeps: each cycle of epochs ends with one snapshot tick.
	luCycle = 64
	luProbe = 1000
)

// luEpochs sizes the run in whole snapshot cycles: three per five
// seconds of --seconds, 768 epochs at 20 s. That is fewer than the
// epochs the time would allow because every run writes all its
// snapshots (about 300 MB at 768 epochs, growing with the square of the
// epoch count), and that much writing slowed the shared disk's fsyncs
// for tens of seconds afterwards, moving the next runs' numbers.
func luEpochs(seconds int) int { return luCycle * max(1, seconds*3/5) }

func runLongUptime(r *run) error {
	epochs := luEpochs(r.seconds)
	teams := teamNames(luTeams)
	names, err := buildPlanet(r.seed, 1, luClusters, luMachines)
	if err != nil {
		return err
	}
	gen := &generator{rng: rand.New(rand.NewSource(r.seed ^ trafficSalt)), teams: teams, regions: names.regions, unitLo: 3, unitHi: 40}
	specs := make([]orderSpec, epochs*luPerEpoch)
	for i := range specs {
		specs[i] = gen.next()
	}
	r.params["epochs"] = epochs
	r.params["orders_per_epoch"] = luPerEpoch
	r.params["poll_rate_per_s"] = luPollRate
	r.params["clusters"] = luClusters
	r.params["teams"] = luTeams
	r.params["snapshot_every"] = luCycle

	maxPolls := (epochs/10 + 60) * luPollRate // far beyond any run's length
	if r.traced() {
		// Sized before any server exists: handlers index it by request.
		r.tr.handlerNs = make([]atomic.Int64, maxPolls)
	}
	s, setup, err := measureSetup(setupReps, func(i int) (*stack, error) {
		return buildStack(stackConfig{
			seed: r.seed, clusters: luClusters, machines: luMachines, teams: teams,
			journalDir: filepath.Join(r.dir, fmt.Sprintf("journal-%d", i)),
		}, r.tr)
	}, (*stack).close)
	if err != nil {
		return err
	}
	r.setE2E("setup_s", "s", setup)
	ep, err := newEpochs(s.ex)
	if err != nil {
		s.close()
		return err
	}
	var acked []int
	if r.traced() {
		probeGen := &generator{rng: rand.New(rand.NewSource(r.seed ^ probeSalt)), teams: teams, regions: names.regions, unitLo: 3, unitHi: 40}
		acked = probe(r, s.ex, probeGen, luProbe)
	}

	client := newClient(1)
	results := make([]exchange, maxPolls)
	gc := startGC()
	w := window{before: s.ex.Metrics()}
	ctx, stopPolls := context.WithCancel(context.Background())
	polled := make(chan []outcome, 1)
	start := time.Now()
	go func() {
		polled <- openLoop(ctx, start, time.Second/luPollRate, maxPolls, 1, func(i int) error {
			var err error
			results[i], err = send(client, s.addr, request{path: pollPaths[i%len(pollPaths)]}, i, r.traced())
			return err
		})
	}()
	for e := 0; e < epochs; e++ {
		for _, o := range specs[e*luPerEpoch : (e+1)*luPerEpoch] {
			t0 := time.Now()
			order, err := o.submit(s.ex)
			d := time.Since(t0)
			r.attempted++
			if err != nil {
				r.failed++
				continue
			}
			w.submit.addDur(d)
			acked = append(acked, order.ID)
		}
		ep.tick(r)
	}
	w.elapsed = time.Since(start)
	stopPolls()
	outs := <-polled
	w.after = s.ex.Metrics()
	gc.report(r)

	var late dist
	var firstErr error
	for _, o := range outs {
		if !o.sent {
			continue
		}
		r.attempted++
		late.addDur(o.late)
		if o.err != nil {
			r.failed++
			if firstErr == nil {
				firstErr = o.err
			}
			continue
		}
		w.poll.addDur(o.latency)
	}
	if firstErr != nil {
		r.params["first_error"] = firstErr.Error()
	}
	w.clear = ep.clear
	w.report(r)
	r.setTail("loadgen.late_ms.tail", "ms", late)
	finishServed(r, s, ep, acked, results)
	return nil
}
