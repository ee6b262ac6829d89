package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"clustermarket/internal/resource"
)

// ErrNoConvergence is returned when the clock exceeds Config.MaxRounds.
// Section III.C.3 shows markets with traders can cycle forever; the guard
// converts that theoretical hazard into a reportable error.
var ErrNoConvergence = errors.New("core: clock auction did not converge")

// Engine selects the demand-revelation strategy Run uses to drive the
// clock. Both engines produce bit-identical results (prices, allocations,
// payments, drop rounds, history) because the incremental engine
// recomputes stale excess-demand components in the same fixed reduction
// order the dense engine uses; the differential property test enforces
// this.
type Engine int

const (
	// EngineIncremental, the default, re-evaluates only the proxies whose
	// bundles touch a pool whose price moved last round, updating the
	// excess-demand vector by recomputing just the affected components.
	// Each round costs O(affected bidders) instead of O(all bidders) —
	// the planet-scale fast path.
	EngineIncremental Engine = iota
	// EngineDense re-scores every proxy against every bundle and rebuilds
	// the excess-demand vector from scratch each round — the literal
	// Algorithm 1 transcription, kept as the reference implementation.
	EngineDense
)

func (e Engine) String() string {
	switch e {
	case EngineIncremental:
		return "incremental"
	case EngineDense:
		return "dense"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Config parameterizes one clock auction run.
type Config struct {
	// Start is p̃, the starting/reserve price vector. Section IV derives
	// it from utilization; it must be componentwise ≥ 0.
	Start resource.Vector
	// Policy is the price update function g(x, p). Nil selects
	// DefaultPolicy.
	Policy IncrementPolicy
	// Epsilon is the tolerance for the stopping test z(t) ≤ ε. Markets
	// with divisible supply rarely clear exactly; a small positive ε
	// mirrors the paper's observation that supplies and demands rarely
	// "align" perfectly.
	Epsilon float64
	// MaxRounds bounds the clock. Zero selects a generous default.
	MaxRounds int
	// Parallel evaluates bidder proxies on all CPUs each round. The
	// reduction order is fixed, so results are identical to serial runs.
	Parallel bool
	// RecordHistory retains per-round snapshots in Result.History.
	RecordHistory bool
	// Engine selects the demand-revelation strategy; the zero value is
	// EngineIncremental.
	Engine Engine
	// Partition controls the sub-market decomposition (see partition.go):
	// when the bidder–pool graph splits into independent connected
	// components, each component's clock runs on its own scratch —
	// concurrently under Parallel — and the per-component outcomes are
	// merged back in global order, bit-identical to the merged
	// single-clock run. The zero value PartitionAuto enables it;
	// PartitionOff forces the merged loop.
	Partition PartitionMode
}

// DefaultMaxRounds bounds auctions that were not given an explicit limit.
const DefaultMaxRounds = 100000

// Round is one snapshot of the price clock.
type Round struct {
	T             int
	Prices        resource.Vector
	ExcessDemand  resource.Vector
	ActiveBidders int
}

// Result is the auction outcome: final uniform prices, per-bid
// allocations x_u, and payments x_uᵀp.
type Result struct {
	// Converged is false only when MaxRounds was hit; in that case the
	// remaining fields describe the state at the final round.
	Converged bool
	Rounds    int
	// Prices is the final price vector p.
	Prices resource.Vector
	// Allocations[i] is x_u for bids[i]; nil when the bid lost. A
	// winner's entry is bids[i].Bundles[ChosenBundle[i]] itself, not a
	// copy: it belongs to the bid, which is frozen from NewAuction on,
	// and is read-only to every holder of the Result.
	Allocations []resource.Vector
	// Payments[i] is x_uᵀp; negative values are amounts received by
	// sellers. Zero for losers.
	Payments []float64
	// Winners and Losers are bid indices, in input order.
	Winners []int
	Losers  []int
	// ChosenBundle[i] is the index into bids[i].Bundles of the settled
	// bundle, or −1 when the bid lost. Premium statistics for vector-limit
	// bids must be computed against this bundle's limit (Bid.LimitFor),
	// not the scalar Limit, which is ignored when BundleLimits is set.
	ChosenBundle []int
	// DropRound[i] is the round at which bid i last left the auction, or
	// −1 if it was active at the end. A bidder that is priced out and
	// later re-enters (sellers and traders can: rising prices improve
	// their receipts) has its drop round cleared on re-entry, so the
	// diagnostic always agrees with History.ActiveBidders.
	DropRound []int
	// History holds per-round snapshots when Config.RecordHistory is set.
	History []Round
}

// IsWinner reports whether bid i won.
func (r *Result) IsWinner(i int) bool { return r.Allocations[i] != nil }

// TotalTraded returns the sum over winners of the positive parts of their
// allocations: the gross quantity of resources that changed hands (the
// "total value of trade" numerator in Section III.B, in units).
func (r *Result) TotalTraded() resource.Vector {
	if len(r.Allocations) == 0 {
		return nil
	}
	var out resource.Vector
	for _, x := range r.Allocations {
		if x == nil {
			continue
		}
		if out == nil {
			out = make(resource.Vector, len(x))
		}
		out.AddInto(x.PositivePart())
	}
	return out
}

// Auction couples a registry, the sealed bids, and a configuration.
//
// An Auction may be run repeatedly, but its runs must not overlap: the
// clock's working vectors live in per-auction scratch buffers (allocated
// on first use, reused afterwards) so a steady-state round performs zero
// heap allocations. Concurrent auctions each need their own Auction.
type Auction struct {
	reg     *resource.Registry
	bids    []*Bid
	proxies []*Proxy
	cfg     Config
	// incIndex caches the incremental engine's inverted pool→proxies
	// index; bids are frozen after NewAuction, so it is built once and
	// shared across Run calls.
	incIndex *incrementalIndex
	// incState is the incremental engine's reusable working set (dirty
	// sets, epoch marks); reset at the top of each run.
	incState *incrementalState
	// part caches the sub-market decomposition (nil when partitioning is
	// off, unsupported, or the market is one connected component); like
	// incIndex it is derived from the frozen bid set, built once on first
	// use, and shared across Run calls. partBuilt distinguishes "not yet
	// decided" from a cached nil decision.
	part      *partitionState
	partBuilt bool
	// sc holds the round loop's scratch vectors, shared by both engines.
	sc runScratch
}

// runScratch is the per-auction working set of one clock run: the price
// vector, the excess-demand accumulator, the policy step, and the
// per-proxy bundle choices. All four are sized on first use and reused
// across runs so the round loop never allocates.
type runScratch struct {
	p, z, step resource.Vector
	choices    []int
}

// prepare sizes the scratch for a run: p starts at the reserve prices, z
// zeroed, step left for StepInto's full overwrite, choices ready for the
// round-0 full evaluation.
//
//marketlint:allocfree
func (a *Auction) prepare() (p, z resource.Vector, choices []int) {
	r := len(a.cfg.Start)
	a.sc.p = a.sc.p.CopyFrom(a.cfg.Start)
	a.sc.z = a.sc.z.Resize(r)
	a.sc.z.SetZero()
	a.sc.step = a.sc.step.Resize(r)
	if cap(a.sc.choices) < len(a.proxies) {
		a.sc.choices = make([]int, len(a.proxies))
	}
	a.sc.choices = a.sc.choices[:len(a.proxies)]
	return a.sc.p, a.sc.z, a.sc.choices
}

// NewAuction validates the inputs and prepares proxies. Bids are held by
// reference; they must not be mutated during Run.
func NewAuction(reg *resource.Registry, bids []*Bid, cfg Config) (*Auction, error) {
	if reg == nil || reg.Len() == 0 {
		return nil, errors.New("core: auction needs a non-empty registry")
	}
	if len(bids) == 0 {
		return nil, errors.New("core: auction needs at least one bid")
	}
	if cfg.Policy == nil {
		cfg.Policy = DefaultPolicy()
	}
	if err := validatePolicy(cfg.Policy); err != nil {
		return nil, err
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = DefaultMaxRounds
	}
	if cfg.Epsilon < 0 {
		return nil, errors.New("core: negative epsilon")
	}
	if cfg.Partition != PartitionAuto && cfg.Partition != PartitionOff {
		return nil, fmt.Errorf("core: unknown partition mode %d", int(cfg.Partition))
	}
	if len(cfg.Start) != reg.Len() {
		return nil, fmt.Errorf("core: start prices have %d components, registry has %d pools", len(cfg.Start), reg.Len())
	}
	if err := cfg.Start.Validate(); err != nil {
		return nil, fmt.Errorf("core: start prices: %v", err)
	}
	if !cfg.Start.AllNonNegative(0) {
		return nil, errors.New("core: start prices must be nonnegative")
	}
	// One pass over each bid's dense bundles validates it, packs its
	// sparse form and classifies it; every later stage reads the packed
	// form only.
	var pk packer
	slab := make([]Proxy, len(bids))
	proxies := make([]*Proxy, len(bids))
	for i, b := range bids {
		if err := slab[i].wrap(b, reg.Len(), &pk); err != nil {
			return nil, err
		}
		proxies[i] = &slab[i]
	}
	return &Auction{reg: reg, bids: bids, proxies: proxies, cfg: cfg}, nil
}

// Bids returns the auction's bids in input order.
func (a *Auction) Bids() []*Bid { return a.bids }

// Classes tallies the bidder classes, used to predict convergence per
// Section III.C.3.
func (a *Auction) Classes() (buyers, sellers, traders int) {
	for _, px := range a.proxies {
		switch px.class {
		case PureBuyer:
			buyers++
		case PureSeller:
			sellers++
		default:
			traders++
		}
	}
	return
}

// ConvergenceGuaranteed reports whether the Section III.C.3 sufficient
// condition holds: every participant is a pure buyer or a pure seller.
func (a *Auction) ConvergenceGuaranteed() bool {
	_, _, traders := a.Classes()
	return traders == 0
}

// Run executes Algorithm 1: collect proxy demands, stop when excess
// demand is nonpositive, otherwise raise prices and repeat. On
// non-convergence it returns ErrNoConvergence together with the partial
// Result for diagnosis. Config.Engine selects between the incremental
// engine (the default; see incremental.go) and the dense reference
// implementation; their results are bit-identical.
func (a *Auction) Run() (*Result, error) { return a.RunReusing(nil) }

// RunReusing is Run with Result recycling: when res is non-nil (typically
// the outcome of an earlier run of this auction), its slices and
// recorded history rounds are overwritten in place instead of
// reallocated, so a steady-state re-run performs zero heap allocations.
// The returned Result is res itself; the previous outcome it carried is
// destroyed, but the bid bundles its allocations pointed at are never
// written. Pass nil for a fresh Result.
//
//marketlint:allocfree
func (a *Auction) RunReusing(res *Result) (*Result, error) {
	res = a.resetResult(res)
	if ps := a.partition(); ps != nil {
		return a.runPartitioned(ps, res)
	}
	return a.runMerged(res)
}

// runMerged dispatches the classic single-clock engines. It is both the
// non-partitioned path and the fallback the partitioned driver uses to
// reproduce globally-coupled error semantics exactly.
//
//marketlint:allocfree
func (a *Auction) runMerged(res *Result) (*Result, error) {
	res = a.resetResult(res)
	if a.cfg.Engine == EngineDense {
		return a.runDense(res)
	}
	return a.runIncremental(res)
}

// resetResult prepares res for (re)use: slices are truncated in place
// with capacity kept, and the drop-round diagnostics reset.
//
//marketlint:allocfree
func (a *Auction) resetResult(res *Result) *Result {
	if res == nil {
		res = &Result{}
	}
	n := len(a.bids)
	if cap(res.DropRound) < n {
		res.DropRound = make([]int, n)
	}
	res.DropRound = res.DropRound[:n]
	for i := range res.DropRound {
		res.DropRound[i] = -1
	}
	res.Converged = false
	res.Rounds = 0
	res.Winners = res.Winners[:0]
	res.Losers = res.Losers[:0]
	res.History = res.History[:0]
	return res
}

// appendRound records one history snapshot, reusing the vectors of a
// recycled Round beyond len(h) when RunReusing supplied one.
//
//marketlint:allocfree
func appendRound(h []Round, t int, p, z resource.Vector, active int) []Round {
	if len(h) < cap(h) {
		h = h[:len(h)+1]
		r := &h[len(h)-1]
		r.T, r.ActiveBidders = t, active
		r.Prices = r.Prices.CopyFrom(p)
		r.ExcessDemand = r.ExcessDemand.CopyFrom(z)
		return h
	}
	//marketlint:allow allocfree history growth: runs once per new history depth, then the rounds above are recycled
	return append(h, Round{T: t, Prices: p.Clone(), ExcessDemand: z.Clone(), ActiveBidders: active})
}

// runDense is the literal Algorithm 1 loop: every proxy is re-scored at
// the new prices each round and the excess-demand vector is rebuilt from
// scratch. It is quadratic in practice and kept as the reference the
// incremental engine is differentially tested against.
//
//marketlint:allocfree
func (a *Auction) runDense(res *Result) (*Result, error) {
	// choices[i] is the bundle index demanded by proxy i this round, or
	// −1 when priced out. Working with indices keeps the round loop on
	// the sparse fast path; all four working buffers are per-auction
	// scratch, so a steady-state round allocates nothing.
	p, z, choices := a.prepare()
	step := a.sc.step

	for t := 0; t < a.cfg.MaxRounds; t++ {
		active := a.collect(p, choices)
		z.SetZero()
		for i, c := range choices {
			if c >= 0 {
				a.proxies[i].sparse[c].addInto(z)
				// An active bidder is not dropped — clear any stale drop
				// round from an earlier priced-out stretch (sellers and
				// traders re-enter as prices rise).
				res.DropRound[i] = -1
			} else if res.DropRound[i] < 0 {
				res.DropRound[i] = t
			}
		}
		if a.cfg.RecordHistory {
			res.History = appendRound(res.History, t, p, z, active)
		}
		if z.AllNonPositive(a.cfg.Epsilon) {
			res.Converged = true
			res.Rounds = t + 1
			a.settle(res, p, choices)
			return res, nil
		}
		a.cfg.Policy.StepInto(step, z, p)
		if !step.AllNonNegative(0) {
			//marketlint:allow allocfree error path; the run is abandoned
			return nil, fmt.Errorf("core: policy %s produced a negative step", a.cfg.Policy.Name())
		}
		if step.MaxAbs() == 0 {
			// The policy refused to move despite excess demand; without
			// progress the loop would spin forever.
			//marketlint:allow allocfree error path; the run is abandoned
			return nil, fmt.Errorf("core: policy %s stalled with positive excess demand at round %d", a.cfg.Policy.Name(), t)
		}
		p.AddInto(step)
	}

	res.Converged = false
	res.Rounds = a.cfg.MaxRounds
	a.settle(res, p, choices)
	return res, ErrNoConvergence
}

// parallelThreshold is the smallest evaluation batch worth fanning out
// over worker goroutines; below it, spawn overhead dominates.
const parallelThreshold = 64

// collect evaluates every proxy at prices p into choices, returning the
// number of active bidders. With cfg.Parallel it fans the loop out over
// GOMAXPROCS workers; the choices slice is indexed by bidder so the
// result is deterministic either way.
//
//marketlint:allocfree
func (a *Auction) collect(p resource.Vector, choices []int) int {
	if !a.cfg.Parallel || len(a.proxies) < parallelThreshold {
		active := 0
		for i, px := range a.proxies {
			choices[i] = px.choose(p)
			if choices[i] >= 0 {
				active++
			}
		}
		return active
	}
	//marketlint:allow allocfree opt-in parallel fan-out; spawn cost is amortized over ≥64 evaluations
	return a.collectParallel(p, choices)
}

// collectParallel is collect's goroutine fan-out over GOMAXPROCS
// workers; choices slots are disjoint per worker, so the result matches
// the serial loop.
func (a *Auction) collectParallel(p resource.Vector, choices []int) int {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(a.proxies) {
		workers = len(a.proxies)
	}
	var wg sync.WaitGroup
	chunk := (len(a.proxies) + workers - 1) / workers
	counts := make([]int, workers)
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(a.proxies) {
			hi = len(a.proxies)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			n := 0
			for i := lo; i < hi; i++ {
				choices[i] = a.proxies[i].choose(p)
				if choices[i] >= 0 {
					n++
				}
			}
			counts[w] = n
		}(w, lo, hi)
	}
	wg.Wait()
	active := 0
	for _, n := range counts {
		active += n
	}
	return active
}

// settle freezes the outcome at final prices: winners receive their
// demanded bundle and pay its cost; everyone else loses. A winner's
// allocation is its frozen bid bundle itself, shared rather than copied,
// so settle never writes a dense vector. The Result's slices are reused
// in place when RunReusing recycled them, and nothing in the settled
// outcome aliases the auction's scratch buffers.
//
//marketlint:allocfree
func (a *Auction) settle(res *Result, p resource.Vector, choices []int) {
	n := len(a.bids)
	res.Prices = res.Prices.CopyFrom(p)
	if cap(res.Allocations) < n {
		res.Allocations = make([]resource.Vector, n)
	}
	res.Allocations = res.Allocations[:n]
	if cap(res.Payments) < n {
		res.Payments = make([]float64, n)
	}
	res.Payments = res.Payments[:n]
	if cap(res.ChosenBundle) < n {
		res.ChosenBundle = make([]int, n)
	}
	res.ChosenBundle = res.ChosenBundle[:n]
	res.Winners, res.Losers = res.Winners[:0], res.Losers[:0]
	for i, c := range choices {
		res.ChosenBundle[i] = c
		if c < 0 {
			res.Allocations[i] = nil
			res.Payments[i] = 0
			res.Losers = append(res.Losers, i)
			continue
		}
		res.Allocations[i] = a.bids[i].Bundles[c]
		res.Payments[i] = a.proxies[i].sparse[c].dot(p)
		res.Winners = append(res.Winners, i)
	}
}

// PriceCeiling returns, for a market of pure buyers and sellers, an upper
// bound on any pool's final price: the largest per-unit price any buyer
// can afford at its smallest bundle, plus the starting price. It is the
// constructive form of the Section III.C.3 convergence argument and is
// used by the property tests to bound round counts.
func PriceCeiling(bids []*Bid, start resource.Vector) float64 {
	ceiling := 0.0
	for _, b := range bids {
		if b.Class() != PureBuyer {
			continue
		}
		for _, q := range b.Bundles {
			minQty := 0.0
			for _, x := range q {
				if x > 0 && (minQty == 0 || x < minQty) {
					minQty = x
				}
			}
			if minQty > 0 {
				if c := b.Limit / minQty; c > ceiling {
					ceiling = c
				}
			}
		}
	}
	return ceiling + start.MaxAbs()
}
