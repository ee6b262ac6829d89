package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"clustermarket/internal/invariant"
	"clustermarket/internal/market"
)

// planet-clear: a large regional book cleared in bulk through the
// library, with no HTTP and no journal. Each order's alternatives lie in
// its home region, so the clock splits into components per region; clock
// rounds and batch settlement do the work. A rep admits and clears a few
// epochs back to back on a fresh exchange; the run repeats the rep with
// the same inputs, which keeps the live heap to one rep's book.
const (
	pcRegions  = 8
	pcClusters = 8
	pcMachines = 100
	pcTeams    = 256
	// pcPerEpoch keeps a rep's book to about 250 MB of live heap. At
	// 40 000 orders (500 MB live, about twice that before a collection)
	// the memory the run took and gave back slowed the shared host's
	// fsyncs by half for the runs that followed it.
	pcPerEpoch = 20000
	pcEpochs   = 3
	// pcBlock is how many consecutive calls one submit or poll sample
	// averages: a single call takes microseconds, so one call's time is
	// mostly timer and scheduler noise.
	pcBlock = 1000
)

// pcReps sizes the run: four reps per five seconds of --seconds, about
// as many as fit in it on a 2-CPU machine.
func pcReps(seconds int) int { return max(1, seconds*4/5) }

func runPlanetClear(r *run) error {
	reps := pcReps(r.seconds)
	teams := teamNames(pcTeams)
	names, err := buildPlanet(r.seed, pcRegions, pcClusters, pcMachines)
	if err != nil {
		return err
	}
	gen := &generator{rng: rand.New(rand.NewSource(r.seed ^ trafficSalt)), teams: teams, regions: names.regions, unitLo: 2, unitHi: 30}
	specs := make([][]orderSpec, pcEpochs)
	for e := range specs {
		specs[e] = make([]orderSpec, pcPerEpoch)
		for i := range specs[e] {
			specs[e][i] = gen.next()
		}
	}
	r.params["regions"] = pcRegions
	r.params["clusters_per_region"] = pcClusters
	r.params["machines_per_cluster"] = pcMachines
	r.params["teams"] = pcTeams
	r.params["orders_per_epoch"] = pcPerEpoch
	r.params["epochs_per_rep"] = pcEpochs
	r.params["reps"] = reps

	build := func(int) (*planetWorld, error) {
		p, err := buildPlanet(r.seed, pcRegions, pcClusters, pcMachines)
		if err != nil {
			return nil, err
		}
		ex, err := market.NewExchange(p.fleet, market.Config{InitialBudget: budget})
		if err != nil {
			return nil, err
		}
		return &planetWorld{p, ex}, openTeams(ex, teams)
	}
	pw, setup, err := measureSetup(setupReps, build, func(*planetWorld) {})
	if err != nil {
		return err
	}
	r.setE2E("setup_s", "s", setup)

	ep, err := newEpochs(pw.ex)
	if err != nil {
		return err
	}
	var (
		w     window
		first []pin
	)
	gc := startGC()
	for rep := 0; rep < reps; rep++ {
		if rep > 0 {
			pw = nil
			if pw, err = build(0); err != nil {
				return err
			}
			if err := ep.attach(pw.ex); err != nil {
				return err
			}
		}
		start := time.Now()
		got, acked := planetRep(r, ep, specs, &w.submit, &w.poll)
		w.elapsed += time.Since(start)
		m := pw.ex.Metrics()
		w.after.Won += m.Won
		w.after.Lost += m.Lost
		w.after.Unsettled += m.Unsettled
		if rep == 0 {
			first = got
			checkPins(r, got)
		} else {
			r.check(slices.Equal(got, first), "rep %d cleared differently from rep 1: %+v, then %+v", rep+1, got, first)
		}
		drain(r, ep.loop, pw.ex)
		finalChecks(r, pw.ex, acked, pw.p)
	}
	gc.report(r)
	w.clear = ep.clear
	w.report(r)

	heap := heapMB()
	r.setE2E("heap_mb", "MB", heap)
	submitted := float64(pw.ex.Metrics().Submitted)
	r.setLayer("market.heap_kb_per_order", "KB", heap*1e6/1024/submitted)
	r.setLayer("market.rejected", "count", float64(pw.ex.Metrics().Rejected))
	r.setLayer("telemetry.events_per_order", "count", 0)
	r.setLayer("telemetry.dropped_share", "share", 0)
	r.setLayer("loadgen.late_ms.tail", "ms", 0)
	ep.report(r)
	pw, ep = nil, nil

	// There is no journal, so a restart has no book to recover: it
	// rebuilds the fleet, the exchange and the accounts and verifies the
	// empty book, as a journal-less marketd restart does.
	runtime.GC()
	t0 := time.Now()
	back, err := build(0)
	if err != nil {
		return err
	}
	vs := invariant.CheckExchange(back.ex)
	r.setLayer("recover_s", "s", time.Since(t0).Seconds())
	r.check(len(vs) == 0, "restarted exchange: %v", vs)
	r.setLayer("journal.open_s", "s", 0)
	r.setLayer("market.replay_s", "s", 0)
	r.setLayer("journal.records_replayed", "count", 0)
	if r.traced() {
		for _, v := range w.submit {
			r.tr.marketSubmitUs.add(v * 1e3)
		}
		r.tr.report(r, submitted, nil)
	}
	return nil
}

type planetWorld struct {
	p  *planet
	ex *market.Exchange
}

// planetRep admits and clears the epochs on ep's exchange, adding to the
// submit and poll samples. It returns each epoch's outcome and the
// acknowledged order ids.
func planetRep(r *run, ep *epochs, specs [][]orderSpec, submit, poll *dist) ([]pin, []int) {
	ex := ep.ex
	var outcomes []pin
	var acked []int
	for e, batch := range specs {
		var before float64
		if r.traced() {
			before = mallocs()
		}
		ids := make([]int, 0, len(batch))
		t0 := time.Now()
		for i, o := range batch {
			order, err := o.submit(ex)
			r.attempted++
			if err != nil {
				r.failed++
			} else {
				ids = append(ids, order.ID)
			}
			if (i+1)%pcBlock == 0 {
				t1 := time.Now()
				submit.add(ms(t1.Sub(t0)) / pcBlock)
				t0 = t1
			}
		}
		if r.traced() {
			r.tr.marketSubmitAlloc = ratio(mallocs()-before, float64(len(ids)))
		}
		rec := ep.tick(r)
		if rec == nil {
			r.check(false, "epoch %d: tick found an empty book", e+1)
			continue
		}
		outcomes = append(outcomes, pinOf(rec))
		// The client reads back every order's outcome.
		t0 = time.Now()
		for i, id := range ids {
			if _, err := ex.Order(id); err != nil {
				r.failed++
			}
			r.attempted++
			if (i+1)%pcBlock == 0 {
				t1 := time.Now()
				poll.add(ms(t1.Sub(t0)) / pcBlock)
				t0 = t1
			}
		}
		acked = append(acked, ids...)
	}
	return outcomes, acked
}

// pin is one planet-clear epoch's outcome, fixed per seed.
type pin struct {
	Converged bool   `json:"converged"`
	Rounds    int    `json:"rounds"`
	Won       int    `json:"won"`
	Prices    string `json:"prices_sha256"`
}

func pinOf(rec *market.AuctionRecord) pin {
	h := sha256.New()
	var b [8]byte
	for _, p := range rec.Prices {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(p))
		h.Write(b[:])
	}
	return pin{Converged: rec.Converged, Rounds: rec.Rounds, Won: rec.Settled, Prices: hex.EncodeToString(h.Sum(nil))[:16]}
}
