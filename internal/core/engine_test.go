package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"clustermarket/internal/resource"
)

// randomMixedMarket builds a random market over reg mixing pure buyers,
// pure sellers, and traders, with both scalar and vector (per-bundle)
// limits — the full input space the incremental engine must match the
// dense engine over.
func randomMixedMarket(rng *rand.Rand, reg *resource.Registry) []*Bid {
	n := rng.Intn(40) + 4
	bids := make([]*Bid, 0, n)
	for u := 0; u < n; u++ {
		nAlt := rng.Intn(3) + 1
		bundles := make([]resource.Vector, 0, nAlt)
		kind := rng.Intn(4) // 0,1: buyer  2: seller  3: trader
		for a := 0; a < nAlt; a++ {
			v := make(resource.Vector, reg.Len())
			for k := 0; k < rng.Intn(3)+1; k++ {
				q := float64(rng.Intn(20) + 1)
				switch {
				case kind == 2:
					q = -q
				case kind == 3 && rng.Intn(2) == 0:
					q = -q
				}
				v[rng.Intn(reg.Len())] = q
			}
			if v.IsZero() {
				v[rng.Intn(reg.Len())] = 1
			}
			bundles = append(bundles, v)
		}
		b := &Bid{User: fmt.Sprintf("u%d", u), Bundles: bundles}
		// Limit signs must respect Validate: a bid that came out a pure
		// seller (all offers) needs nonpositive limits.
		limit := func() float64 {
			if b.Class() == PureSeller {
				return -float64(rng.Intn(100) + 1)
			}
			return float64(rng.Intn(250) + 10)
		}
		if rng.Intn(2) == 0 {
			b.BundleLimits = make([]float64, len(bundles))
			for i := range b.BundleLimits {
				b.BundleLimits[i] = limit()
			}
		} else {
			b.Limit = limit()
		}
		bids = append(bids, b)
	}
	return bids
}

// mustEqualResults requires the two engines' outcomes to be bit-identical
// across every Result field, including per-round history.
func mustEqualResults(t *testing.T, tag string, dense, inc *Result) {
	t.Helper()
	if dense.Converged != inc.Converged || dense.Rounds != inc.Rounds {
		t.Fatalf("%s: converged/rounds = %v/%d vs %v/%d",
			tag, dense.Converged, dense.Rounds, inc.Converged, inc.Rounds)
	}
	exact := func(name string, a, b resource.Vector) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %s length %d vs %d", tag, name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: %s[%d] = %v vs %v", tag, name, i, a[i], b[i])
			}
		}
	}
	exact("prices", dense.Prices, inc.Prices)
	exactInts := func(name string, a, b []int) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %s length %d vs %d", tag, name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: %s[%d] = %d vs %d", tag, name, i, a[i], b[i])
			}
		}
	}
	exactInts("winners", dense.Winners, inc.Winners)
	exactInts("losers", dense.Losers, inc.Losers)
	exactInts("chosenBundle", dense.ChosenBundle, inc.ChosenBundle)
	exactInts("dropRound", dense.DropRound, inc.DropRound)
	for i := range dense.Payments {
		if dense.Payments[i] != inc.Payments[i] {
			t.Fatalf("%s: payment[%d] = %v vs %v", tag, i, dense.Payments[i], inc.Payments[i])
		}
		dx, ix := dense.Allocations[i], inc.Allocations[i]
		if (dx == nil) != (ix == nil) {
			t.Fatalf("%s: allocation[%d] nil mismatch", tag, i)
		}
		if dx != nil {
			exact(fmt.Sprintf("allocation[%d]", i), dx, ix)
		}
	}
	if len(dense.History) != len(inc.History) {
		t.Fatalf("%s: history length %d vs %d", tag, len(dense.History), len(inc.History))
	}
	for r := range dense.History {
		dh, ih := dense.History[r], inc.History[r]
		if dh.T != ih.T || dh.ActiveBidders != ih.ActiveBidders {
			t.Fatalf("%s: round %d T/active = %d/%d vs %d/%d",
				tag, r, dh.T, dh.ActiveBidders, ih.T, ih.ActiveBidders)
		}
		exact(fmt.Sprintf("history[%d].prices", r), dh.Prices, ih.Prices)
		exact(fmt.Sprintf("history[%d].z", r), dh.ExcessDemand, ih.ExcessDemand)
	}
}

// TestIncrementalMatchesDenseDifferential is the determinism contract of
// the incremental engine: over randomized registries and markets of
// buyers, sellers, and traders (scalar and vector limits, converging and
// non-converging clocks, serial and parallel evaluation), its results
// are bit-identical to the dense reference engine — same prices, same
// allocations and payments, same winners and drop rounds, same per-round
// history. The reduction order is fixed, so exact float equality is the
// assertion, not a tolerance.
func TestIncrementalMatchesDenseDifferential(t *testing.T) {
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pools := make([]resource.Pool, rng.Intn(7)+2)
		for i := range pools {
			pools[i] = resource.Pool{Cluster: fmt.Sprintf("c%d", i), Dim: resource.CPU}
		}
		reg := resource.NewRegistry(pools...)
		bids := randomMixedMarket(rng, reg)
		start := make(resource.Vector, reg.Len())
		for i := range start {
			start[i] = rng.Float64() * 2
		}
		cfg := Config{
			Start: start,
			Policy: Capped{
				Alpha:   0.01 + rng.Float64()*0.1,
				Delta:   0.2 + rng.Float64(),
				MinStep: 0.005,
			},
			Epsilon:       float64(rng.Intn(2)) * 0.01,
			MaxRounds:     300,
			Parallel:      seed%3 == 0,
			RecordHistory: true,
		}

		run := func(engine Engine) (*Result, error) {
			c := cfg
			c.Engine = engine
			a, err := NewAuction(reg, bids, c)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return a.Run()
		}
		dense, denseErr := run(EngineDense)
		inc, incErr := run(EngineIncremental)
		if (denseErr == nil) != (incErr == nil) || !errors.Is(incErr, denseErr) && incErr != nil && denseErr != nil {
			t.Fatalf("seed %d: errors differ: dense=%v incremental=%v", seed, denseErr, incErr)
		}
		if dense == nil || inc == nil {
			t.Fatalf("seed %d: nil result: dense=%v incremental=%v", seed, denseErr, incErr)
		}
		mustEqualResults(t, fmt.Sprintf("seed %d", seed), dense, inc)
	}
}

// TestDropRoundClearedOnReEntry pins the re-entry fix: a seller priced
// out at the reserve prices (its receipts are below its limit) re-enters
// once the clock lifts its pool high enough, so its drop round must be
// cleared — the old behavior froze the first drop round forever and
// contradicted History.ActiveBidders.
func TestDropRoundClearedOnReEntry(t *testing.T) {
	reg := resource.NewRegistry(resource.Pool{Cluster: "r1", Dim: resource.CPU})
	bids := []*Bid{
		// Wants at least 50 for 10 units: priced out below 5/unit.
		{User: "seller", Limit: -50, Bundles: []resource.Vector{{-10}}},
		{User: "buyer", Limit: 1000, Bundles: []resource.Vector{{10}}},
	}
	for _, engine := range []Engine{EngineDense, EngineIncremental} {
		a, err := NewAuction(reg, bids, Config{
			Start:         resource.Vector{1},
			Policy:        Capped{Alpha: 0.5, Delta: 1, MinStep: 0.1},
			RecordHistory: true,
			Engine:        engine,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Run()
		if err != nil {
			t.Fatalf("%v: %v", engine, err)
		}
		if !res.Converged {
			t.Fatalf("%v: did not converge", engine)
		}
		if !res.IsWinner(0) || !res.IsWinner(1) {
			t.Fatalf("%v: winners = %v", engine, res.Winners)
		}
		// The seller was inactive in round 0 (one active bidder) and
		// active at the end — DropRound must agree with the history.
		if res.History[0].ActiveBidders != 1 {
			t.Fatalf("%v: round 0 active = %d, want 1", engine, res.History[0].ActiveBidders)
		}
		if last := res.History[len(res.History)-1].ActiveBidders; last != 2 {
			t.Fatalf("%v: final active = %d, want 2", engine, last)
		}
		if res.DropRound[0] != -1 {
			t.Errorf("%v: re-entered seller DropRound = %d, want -1", engine, res.DropRound[0])
		}
		if res.DropRound[1] != -1 {
			t.Errorf("%v: always-active buyer DropRound = %d, want -1", engine, res.DropRound[1])
		}
	}
}

// TestPureBuyerRetirementIsFinal checks the incremental engine's
// retirement rule at the Result level: a priced-out pure buyer never
// reappears (its drop round sticks), while the engine still settles the
// rest of the market identically to the dense path.
func TestPureBuyerRetirementIsFinal(t *testing.T) {
	reg := resource.NewRegistry(resource.Pool{Cluster: "r1", Dim: resource.CPU})
	bids := []*Bid{
		{User: "op", Limit: -0.01, Bundles: []resource.Vector{{-10}}},
		{User: "poor", Limit: 25, Bundles: []resource.Vector{{10}}},
		{User: "rich", Limit: 400, Bundles: []resource.Vector{{10}}},
	}
	a, err := NewAuction(reg, bids, Config{
		Start:         resource.Vector{1},
		Policy:        Capped{Alpha: 0.05, Delta: 0.2, MinStep: 0.05},
		RecordHistory: true,
		Engine:        EngineIncremental,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.IsWinner(1) {
		t.Error("poor buyer won")
	}
	drop := res.DropRound[1]
	if drop < 0 {
		t.Fatal("poor buyer has no drop round")
	}
	// After its drop round, the active-bidder counts never include it
	// again: retirement is permanent.
	for _, h := range res.History[drop:] {
		if h.ActiveBidders > 2 {
			t.Fatalf("round %d active = %d after buyer dropped", h.T, h.ActiveBidders)
		}
	}
}

// TestRunReusingMatchesFreshRun pins RunReusing's recycling contract:
// re-running an auction into a recycled Result — including one recycled
// across engines and history modes — yields outcomes bit-identical to a
// fresh Run.
func TestRunReusingMatchesFreshRun(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		pools := make([]resource.Pool, rng.Intn(5)+2)
		for i := range pools {
			pools[i] = resource.Pool{Cluster: fmt.Sprintf("c%d", i), Dim: resource.CPU}
		}
		reg := resource.NewRegistry(pools...)
		bids := randomMixedMarket(rng, reg)
		start := make(resource.Vector, reg.Len())
		for i := range start {
			start[i] = rng.Float64() * 2
		}
		for _, engine := range []Engine{EngineDense, EngineIncremental} {
			a, err := NewAuction(reg, bids, Config{
				Start:         start,
				Policy:        Capped{Alpha: 0.05, Delta: 0.5, MinStep: 0.01},
				MaxRounds:     300,
				RecordHistory: seed%2 == 0,
				Engine:        engine,
			})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			fresh, freshErr := a.Run()
			if fresh == nil {
				t.Fatalf("seed %d: nil result (%v)", seed, freshErr)
			}
			// Recycle twice: the second pass exercises fully warmed scratch.
			reused, reusedErr := a.RunReusing(&Result{})
			for pass := 0; pass < 2; pass++ {
				if (freshErr == nil) != (reusedErr == nil) {
					t.Fatalf("seed %d %v: errors differ: %v vs %v", seed, engine, freshErr, reusedErr)
				}
				mustEqualResults(t, fmt.Sprintf("seed %d %v pass %d", seed, engine, pass), fresh, reused)
				reused, reusedErr = a.RunReusing(reused)
			}
		}
	}
}

// TestSteadyStateRoundsAllocationFree pins the zero-allocation contract
// of the refactored round loop: once an auction's scratch buffers are
// warm, re-running it through RunReusing performs no heap allocations at
// all — with and without history recording, on both engines.
func TestSteadyStateRoundsAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	reg := resource.NewRegistry(
		resource.Pool{Cluster: "c0", Dim: resource.CPU},
		resource.Pool{Cluster: "c1", Dim: resource.CPU},
		resource.Pool{Cluster: "c2", Dim: resource.CPU},
	)
	bids := randomMixedMarket(rng, reg)
	start := resource.Vector{0.5, 0.5, 0.5}
	for _, history := range []bool{false, true} {
		for _, engine := range []Engine{EngineDense, EngineIncremental} {
			a, err := NewAuction(reg, bids, Config{
				Start:         start,
				Policy:        Capped{Alpha: 0.05, Delta: 0.5, MinStep: 0.01},
				MaxRounds:     300,
				RecordHistory: history,
				Engine:        engine,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := a.Run() // warm the scratch and the Result
			if res == nil {
				t.Fatalf("%v: nil result (%v)", engine, err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				res, _ = a.RunReusing(res)
			})
			if allocs != 0 {
				t.Errorf("%v (history=%v): %.1f allocs per steady-state run, want 0", engine, history, allocs)
			}
		}
	}
}

// TestProxyClassMatchesBidClass: the class the validation pass caches on
// each proxy — which the incremental index and the partition sub-proxies
// read instead of rescanning dense bundles — equals Bid.Class() for
// every bid both 120-seed differential generators produce.
func TestProxyClassMatchesBidClass(t *testing.T) {
	check := func(tag string, a *Auction) {
		t.Helper()
		for i, px := range a.proxies {
			if want := a.bids[i].Class(); px.class != want {
				t.Fatalf("%s bid %d: cached class %v, Bid.Class() %v", tag, i, px.class, want)
			}
		}
	}
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pools := make([]resource.Pool, rng.Intn(7)+2)
		for i := range pools {
			pools[i] = resource.Pool{Cluster: fmt.Sprintf("c%d", i), Dim: resource.CPU}
		}
		reg := resource.NewRegistry(pools...)
		a, err := NewAuction(reg, randomMixedMarket(rng, reg), Config{Start: make(resource.Vector, reg.Len())})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		check(fmt.Sprintf("mixed seed %d", seed), a)

		rng = rand.New(rand.NewSource(9000 + seed))
		reg, bids := randomRegionalMarket(rng, rng.Intn(5)+2)
		a, err = NewAuction(reg, bids, Config{Start: make(resource.Vector, reg.Len())})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		check(fmt.Sprintf("regional seed %d", seed), a)
		if ps := a.partition(); ps != nil {
			for k, c := range ps.comps {
				check(fmt.Sprintf("regional seed %d component %d", seed, k), c.auc)
			}
		}
	}
}
