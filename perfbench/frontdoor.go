package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"time"
)

// front-door: marketd's serving path under a fixed open-loop arrival
// rate. Every submit pays HTTP, admission, a WAL append with its fsync
// and a firehose publish; each epoch's clock is small (about 45 orders),
// so the auction's fixed build cost matters and its rounds barely run.
// Snapshots are set past the run's end and left to long-uptime.
//
// The rate keeps the journal, which every submit and every settlement
// fsyncs under one lock, and the two CPUs well below saturation even
// when the shared host slows down. Load amplifies such spells: at 1000
// requests/s one multiplied submit latency several times over, and at
// 500/s the tick median still spread three times wider across runs
// than at this rate.
const (
	fdRate      = 250 // requests per second
	fdEpoch     = 200 * time.Millisecond
	fdClusters  = 8
	fdMachines  = 20
	fdTeams     = 64
	fdPollShare = 0.1
	fdWorkers   = 2 // client goroutines, one connection each
	fdProbe     = 1000
	setupReps   = 21
	// never is a snapshot cadence no run reaches.
	never = 1 << 30
)

// trafficSalt separates the traffic stream from the world's.
const trafficSalt = 0x5eed

func runFrontDoor(r *run) error {
	n := fdRate * r.seconds
	teams := teamNames(fdTeams)
	names, err := buildPlanet(r.seed, 1, fdClusters, fdMachines)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed ^ trafficSalt))
	gen := &generator{rng: rng, teams: teams, regions: names.regions, unitLo: 3, unitHi: 40}
	reqs := make([]request, n)
	submits := 0
	for i := range reqs {
		if rng.Float64() < fdPollShare {
			reqs[i] = request{path: pollPaths[rng.Intn(len(pollPaths))]}
		} else {
			reqs[i] = bidRequest(gen.next())
			submits++
		}
	}
	r.params["rate_per_s"] = fdRate
	r.params["requests"] = n
	r.params["submits"] = submits
	r.params["epoch_ms"] = ms(fdEpoch)
	r.params["clusters"] = fdClusters
	r.params["teams"] = fdTeams
	r.params["client_goroutines"] = fdWorkers

	if r.traced() {
		// Sized before any server exists: handlers index it by request.
		r.tr.handlerNs = make([]atomic.Int64, n)
	}
	s, setup, err := measureSetup(setupReps, func(i int) (*stack, error) {
		return buildStack(stackConfig{
			seed: r.seed, clusters: fdClusters, machines: fdMachines, teams: teams,
			journalDir: filepath.Join(r.dir, fmt.Sprintf("journal-%d", i)), snapshotEvery: never, subscribe: true,
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
		acked = probe(r, s.ex, probeGen, fdProbe)
	}

	client := newClient(fdWorkers)
	results := make([]exchange, n)
	gc := startGC()
	w := window{before: s.ex.Metrics()}
	ctx, stopTicks := context.WithCancel(context.Background())
	ticks := make(chan struct{})
	go func() {
		defer close(ticks)
		t := time.NewTicker(fdEpoch)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				ep.tick(r)
			}
		}
	}()
	start := time.Now().Add(20 * time.Millisecond)
	outs := openLoop(context.Background(), start, time.Second/fdRate, n, fdWorkers, func(i int) error {
		var err error
		results[i], err = send(client, s.addr, reqs[i], i, r.traced())
		return err
	})
	w.elapsed = time.Since(start)
	stopTicks()
	<-ticks
	w.after = s.ex.Metrics()
	gc.report(r)

	var late dist
	for i, o := range outs {
		r.attempted++
		late.addDur(o.late)
		if o.err != nil {
			if r.failed == 0 {
				r.params["first_error"] = o.err.Error()
			}
			r.failed++
			continue
		}
		if reqs[i].form != "" {
			w.submit.addDur(o.latency)
			acked = append(acked, results[i].order)
		} else {
			w.poll.addDur(o.latency)
		}
	}
	w.clear = ep.clear
	w.report(r)
	r.setTail("loadgen.late_ms.tail", "ms", late)
	finishServed(r, s, ep, acked, results)
	return nil
}

// probeSalt separates the traced pass's admission probe from the traffic.
const probeSalt = 0x9e0be
