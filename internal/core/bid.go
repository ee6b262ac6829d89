// Package core implements the paper's primary contribution: the simulated
// ascending clock auction of Section III that maps sealed bids into
// uniform, linear resource prices and fair allocations.
//
// A bid B_u = {Q_u, π_u} carries an XOR set of bundle vectors and a scalar
// limit. Bidder proxies G_u(p) (Equations 1–2) reveal each user's demand
// at the current price clock; the auctioneer raises prices on pools with
// positive excess demand (Algorithm 1) until excess demand is gone. The
// resulting (x, p) pair is a feasible point of the SYSTEM program in
// Section III.B, which CheckSystem verifies directly.
package core

import (
	"errors"
	"fmt"
	"math"

	"clustermarket/internal/resource"
)

// Bid is one user's sealed bid B_u = {Q_u, π_u} (Section II).
type Bid struct {
	// User identifies the bidding user (an engineering team in the
	// paper's experiments).
	User string
	// Bundles is the indifference set Q_u: the user wants exactly one of
	// these R-component vectors. Positive components are quantities
	// demanded, negative components quantities offered.
	Bundles []resource.Vector
	// Limit is π_u: the maximum total payment the user will make (if
	// positive) or the minimum total amount it must receive, negated (if
	// negative). A seller willing to accept no less than 50 sets
	// Limit = −50.
	Limit float64
	// BundleLimits optionally assigns a distinct limit to each bundle —
	// the "vector π" extension Section II mentions ("does not
	// significantly change our results"). When set it must have one entry
	// per bundle; the proxy then demands the affordable bundle with the
	// largest surplus π_i − q_iᵀp instead of the globally cheapest one.
	// Limit is ignored in that case.
	BundleLimits []float64
}

// LimitFor returns the limit governing bundle i: BundleLimits[i] when
// the vector-π extension is in use, the scalar Limit otherwise. Premium
// statistics (Equation 5) must be computed against the winning bundle's
// limit via this method — using the scalar Limit for a vector-limit bid
// measures γ_u against a number the proxy never consulted.
//
//marketlint:allocfree
func (b *Bid) LimitFor(i int) float64 {
	if len(b.BundleLimits) > 0 {
		return b.BundleLimits[i]
	}
	return b.Limit
}

// MaxLimit returns the largest limit across bundles (the scalar Limit
// when no vector is set). It is the budget-relevant exposure of the bid.
func (b *Bid) MaxLimit() float64 {
	if len(b.BundleLimits) == 0 {
		return b.Limit
	}
	m := b.BundleLimits[0]
	for _, l := range b.BundleLimits[1:] {
		if l > m {
			m = l
		}
	}
	return m
}

// Class partitions bidders per Section III.C.3, which proves convergence
// when every participant is a pure buyer or pure seller and warns that
// traders can break it.
type Class int

const (
	// PureBuyer bids have only nonnegative bundle components.
	PureBuyer Class = iota
	// PureSeller bids have only nonpositive bundle components.
	PureSeller
	// Trader bids mix demanded and offered quantities, either within one
	// bundle or across bundles.
	Trader
)

func (c Class) String() string {
	switch c {
	case PureBuyer:
		return "buyer"
	case PureSeller:
		return "seller"
	default:
		return "trader"
	}
}

// Class classifies the bid. A bid whose bundles disagree in direction is a
// Trader even if each individual bundle is pure.
func (b *Bid) Class() Class {
	dir := 0
	for _, q := range b.Bundles {
		d := q.PureDirection()
		switch {
		case d == 0:
			return Trader
		case dir == 0:
			dir = d
		case d != dir:
			return Trader
		}
	}
	if dir < 0 {
		return PureSeller
	}
	return PureBuyer
}

// Validate checks the bid against registry size r.
func (b *Bid) Validate(r int) error {
	_, _, err := b.check(r, nil)
	return err
}

// check is the bid's one validation pass, shared by Validate, NewProxy
// and NewAuction: after the header checks, a single loop per bundle
// tests every component for finiteness and notes the signs of the
// non-zeros, from which the bid's Class follows. Errors come in a fixed
// order: header, then per bundle its length, its first non-finite
// component and its emptiness, then a pure seller's positive limit.
// When pk is non-nil the non-zeros are packed as they are read, and the
// returned sparse bundles are exact-size slices of pk's slabs; Validate
// passes nil and packs nothing.
func (b *Bid) check(r int, pk *packer) ([]sparseBundle, Class, error) {
	if b.User == "" {
		return nil, 0, errors.New("core: bid has empty user")
	}
	if len(b.Bundles) == 0 {
		return nil, 0, fmt.Errorf("core: bid %q has no bundles", b.User)
	}
	if math.IsNaN(b.Limit) || math.IsInf(b.Limit, 0) {
		return nil, 0, fmt.Errorf("core: bid %q has non-finite limit", b.User)
	}
	if len(b.BundleLimits) > 0 {
		if len(b.BundleLimits) != len(b.Bundles) {
			return nil, 0, fmt.Errorf("core: bid %q has %d bundle limits for %d bundles",
				b.User, len(b.BundleLimits), len(b.Bundles))
		}
		for i, l := range b.BundleLimits {
			if math.IsNaN(l) || math.IsInf(l, 0) {
				return nil, 0, fmt.Errorf("core: bid %q bundle limit %d is non-finite", b.User, i)
			}
		}
	}
	var sparse []sparseBundle
	if pk != nil {
		sparse = pk.bundles(len(b.Bundles))
	}
	// dir is the direction every bundle so far agrees on (+1 demand, −1
	// offer), 0 once two disagree or one bundle mixes both: a Trader.
	dir := 0
	for i, q := range b.Bundles {
		if len(q) != r {
			return nil, 0, fmt.Errorf("core: bid %q bundle %d has %d components, want %d", b.User, i, len(q), r)
		}
		start := 0
		if pk != nil {
			start = pk.reserve(r)
		}
		pos, neg := false, false
		for j, x := range q {
			if x == 0 { // +0 and −0 alike
				continue
			}
			if x-x != 0 { // NaN or ±Inf
				what := "infinite"
				if math.IsNaN(x) {
					what = "NaN"
				}
				return nil, 0, fmt.Errorf("core: bid %q bundle %d: resource: component %d is %s", b.User, i, j, what)
			}
			if x > 0 {
				pos = true
			} else {
				neg = true
			}
			if pk != nil {
				pk.idx = append(pk.idx, int32(j))
				pk.val = append(pk.val, x)
			}
		}
		d := 1
		switch {
		case !pos && !neg:
			return nil, 0, fmt.Errorf("core: bid %q bundle %d is empty", b.User, i)
		case pos && neg:
			d = 0
		case neg:
			d = -1
		}
		switch {
		case i == 0:
			dir = d
		case d != dir:
			dir = 0
		}
		if pk != nil {
			sparse[i] = pk.take(start)
		}
	}
	class := PureBuyer
	switch dir {
	case 0:
		class = Trader
	case -1:
		class = PureSeller
		// A pure seller asking to be *paid* a positive amount must use
		// a negative limit.
		for i := range b.Bundles {
			if b.LimitFor(i) > 0 {
				return nil, 0, fmt.Errorf("core: pure seller %q has positive limit %g (minimum receipt is encoded as a negative limit)", b.User, b.LimitFor(i))
			}
		}
	}
	return sparse, class, nil
}

// BestAffordable returns the bundle the proxy demands at prices p: the
// affordable bundle (cost ≤ its limit) with the largest surplus
// limit − cost, ties breaking toward the lowest index. With a scalar
// limit this is exactly the paper's Equations (1)–(2): the cheapest
// bundle, if affordable. ok is false when every bundle is priced out.
func (b *Bid) BestAffordable(p resource.Vector) (idx int, ok bool) {
	best := -1
	bestSurplus := math.Inf(-1)
	for i, q := range b.Bundles {
		cost := q.Dot(p)
		lim := b.LimitFor(i)
		if cost > lim {
			continue
		}
		if s := lim - cost; s > bestSurplus {
			best, bestSurplus = i, s
		}
	}
	return best, best >= 0
}

// Proxy is the automated bidder proxy of Section III.C: it maps the
// current clock prices to the user's revealed demand via Equations (1)
// and (2). Bundles are pre-packed into sparse form so each round costs
// O(non-zero components) instead of O(R) per bundle.
type Proxy struct {
	bid    *Bid
	sparse []sparseBundle
	// class is the bid's Class, found by the same pass that packed
	// sparse, so the engines never rescan the dense bundles for it.
	class Class
	// lastChoice caches the chosen bundle index for diagnostics; −1 when
	// the proxy has dropped out.
	lastChoice int
}

// NewProxy validates a bid against its own bundle length and wraps it.
// The bid is held by reference and must not be mutated afterwards.
func NewProxy(b *Bid) (*Proxy, error) {
	r := 0
	if len(b.Bundles) > 0 {
		r = len(b.Bundles[0])
	}
	px := &Proxy{}
	if err := px.wrap(b, r, &packer{}); err != nil {
		return nil, err
	}
	return px, nil
}

// wrap validates b against registry size r and makes px its proxy, with
// the bundles packed by pk.
func (px *Proxy) wrap(b *Bid, r int, pk *packer) error {
	sparse, class, err := b.check(r, pk)
	if err != nil {
		return err
	}
	*px = Proxy{bid: b, sparse: sparse, class: class, lastChoice: -1}
	return nil
}

// choose returns the index of the bundle the proxy demands at prices p,
// or −1 when priced out — the sparse fast path of Bid.BestAffordable.
//
//marketlint:allocfree
func (px *Proxy) choose(p resource.Vector) int {
	best := -1
	bestSurplus := math.Inf(-1)
	for i, sb := range px.sparse {
		cost := sb.dot(p)
		lim := px.bid.LimitFor(i)
		if cost > lim {
			continue
		}
		if s := lim - cost; s > bestSurplus {
			best, bestSurplus = i, s
		}
	}
	px.lastChoice = best
	return best
}

// Bid returns the wrapped bid.
func (px *Proxy) Bid() *Bid { return px.bid }

// Demand evaluates G_u(p): the cheapest bundle q̂ ∈ Q_u at prices p if its
// cost q̂ᵀp is within the limit π_u, otherwise nil (the user demands
// nothing). Ties break toward the lowest bundle index so the auction is
// deterministic. With vector limits (BundleLimits) the proxy demands the
// affordable bundle with the largest surplus instead.
func (px *Proxy) Demand(p resource.Vector) resource.Vector {
	if best := px.choose(p); best >= 0 {
		return px.bid.Bundles[best]
	}
	return nil
}

// ChosenBundle returns the index into Bundles selected by the last Demand
// call, or −1 when the proxy demanded nothing.
func (px *Proxy) ChosenBundle() int { return px.lastChoice }

// CheapestCost returns min_{q∈Q_u} qᵀp, the left side of the winner/loser
// conditions (4) and (5) in SYSTEM.
func (b *Bid) CheapestCost(p resource.Vector) float64 {
	cost := math.Inf(1)
	for _, q := range b.Bundles {
		if c := q.Dot(p); c < cost {
			cost = c
		}
	}
	return cost
}

// Premium returns γ_u from Equation (5) of Section V.C: the relative gap
// between the bid limit and the settled payment, |π_u − x_uᵀp| / |x_uᵀp|.
// It returns 0 when the payment is (numerically) zero.
func Premium(limit, payment float64) float64 {
	if math.Abs(payment) < 1e-12 {
		return 0
	}
	return math.Abs(limit-payment) / math.Abs(payment)
}
