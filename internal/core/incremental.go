package core

import (
	"fmt"
	"runtime"
	"sync"

	"clustermarket/internal/resource"
)

// This file implements EngineIncremental, the planet-scale fast path of
// Algorithm 1. The dense engine re-scores every proxy every round, but a
// round's price step only raises the over-demanded pools: a proxy none of
// whose bundles touches a raised pool sees identical bundle costs and
// provably repeats its previous choice. The incremental engine therefore
// maintains an inverted index from pool to the proxies touching it,
// derives the dirty-pool set from the step's positive components,
// re-evaluates only the affected proxies, and refreshes only the
// excess-demand components those proxies' old and new bundles touch.
//
// Determinism contract: results are bit-identical to the dense engine.
// Excess demand is never updated by adding/subtracting deltas — floating
// point addition is not associative, so delta updates would drift in the
// low bits and the two engines' clocks would diverge. Instead each stale
// pool's component is re-summed from zero over the pool's proxy list in
// ascending proxy order, which replays the exact addition sequence the
// dense rebuild performs for that pool (the dense loop visits proxies in
// input order and sparse addInto touches only non-zero components).
// Components of untouched pools are carried over unchanged, which is
// likewise exactly what the dense re-sum would reproduce for them.

// incrementalIndex is the immutable, bids-derived half of the engine:
// the inverted pool→proxies index and the bidder classes. It is built
// once per Auction (bids are frozen after NewAuction) and shared across
// Run calls.
type incrementalIndex struct {
	// poolProxies[r] lists, in ascending order, the proxies any of whose
	// bundles has a non-zero component in pool r.
	poolProxies [][]int32
	pureBuyer   []bool
}

// buildIncrementalIndex makes one pass over the sparse bundles; seen
// dedups pools within a proxy so each proxy appears at most once per
// pool list, and iterating proxies in input order keeps every list
// ascending — the order the determinism contract depends on.
func (a *Auction) buildIncrementalIndex() *incrementalIndex {
	ix := &incrementalIndex{
		poolProxies: make([][]int32, a.reg.Len()),
		pureBuyer:   make([]bool, len(a.proxies)),
	}
	seen := make([]int, a.reg.Len())
	for i, px := range a.proxies {
		stamp := i + 1
		for _, sb := range px.sparse {
			for _, r := range sb.idx {
				if seen[r] != stamp {
					seen[r] = stamp
					ix.poolProxies[r] = append(ix.poolProxies[r], int32(i))
				}
			}
		}
		ix.pureBuyer[i] = px.class == PureBuyer
	}
	return ix
}

// incrementalState carries the per-run working set of the incremental
// engine: the shared index plus epoch-stamped scratch buffers, so the
// round loop allocates nothing.
type incrementalState struct {
	*incrementalIndex
	// retired marks pure buyers that have been priced out of every
	// bundle. Price steps are nonnegative and a pure buyer's bundle costs
	// are nondecreasing in prices, so its surplus can only shrink: once
	// priced out it can never re-enter and is dropped from the index
	// walk permanently. Sellers and traders carry negative components —
	// rising prices improve their receipts — so they stay evaluated.
	retired []bool

	// Epoch-stamped dedup marks: a mark equal to the current epoch means
	// "already gathered this round", so clearing between rounds is O(1).
	epoch     int32
	proxyMark []int32
	poolMark  []int32

	// Reused gather buffers.
	affected   []int32
	stale      []int32
	dirty      []int32
	newChoices []int
}

// newIncrementalState returns the auction's cached working set, reset
// for a fresh run. The epoch-stamped marks survive across runs (a mark
// below the current epoch already reads as "unseen"), so a reset only
// clears the retirement flags and truncates the gather buffers — no
// allocation in the steady state.
//
//marketlint:allocfree
func (a *Auction) newIncrementalState() *incrementalState {
	if a.incIndex == nil {
		//marketlint:allow allocfree one-time index build, cached on the Auction across runs
		a.incIndex = a.buildIncrementalIndex()
	}
	st := a.incState
	if st == nil {
		//marketlint:allow allocfree one-time state construction, cached on the Auction across runs
		st = &incrementalState{
			incrementalIndex: a.incIndex,
			retired:          make([]bool, len(a.proxies)),
			proxyMark:        make([]int32, len(a.proxies)),
			poolMark:         make([]int32, a.reg.Len()),
		}
		a.incState = st
		return st
	}
	for i := range st.retired {
		st.retired[i] = false
	}
	st.affected = st.affected[:0]
	st.stale = st.stale[:0]
	st.dirty = st.dirty[:0]
	// Guard the epoch stamps against int32 wraparound across very many
	// reuses: restart the epoch clock with cleared marks.
	if st.epoch > 1<<30 {
		st.epoch = 0
		for i := range st.proxyMark {
			st.proxyMark[i] = 0
		}
		for i := range st.poolMark {
			st.poolMark[i] = 0
		}
	}
	return st
}

// markStalePool records pool r for excess-demand recomputation, at most
// once per round.
//
//marketlint:allocfree
func (st *incrementalState) markStalePool(r int32) {
	if st.poolMark[r] != st.epoch {
		st.poolMark[r] = st.epoch
		st.stale = append(st.stale, r)
	}
}

// runIncremental executes Algorithm 1 with incremental demand revelation.
// The control flow mirrors runDense exactly — same round structure, same
// stopping test, same error paths — so the two engines settle the same
// choices at the same prices, bit for bit.
//
//marketlint:allocfree
func (a *Auction) runIncremental(res *Result) (*Result, error) {
	p, z, choices := a.prepare()
	step := a.sc.step
	st := a.newIncrementalState()

	// Round 0 is a full evaluation: every proxy is affected by the jump
	// from "no prices" to the reserve prices, and z is built from scratch
	// in the dense engine's proxy order.
	active := a.collect(p, choices)
	for i, c := range choices {
		if c >= 0 {
			a.proxies[i].sparse[c].addInto(z)
		} else {
			res.DropRound[i] = 0
			if st.pureBuyer[i] {
				st.retired[i] = true
			}
		}
	}

	for t := 0; t < a.cfg.MaxRounds; t++ {
		if t > 0 {
			active = a.advance(st, p, choices, res, z, t, active)
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
		// The dirty pools for next round's re-evaluation are exactly the
		// components the step moved.
		st.dirty = st.dirty[:0]
		for r, s := range step {
			if s > 0 {
				//marketlint:allow allocfree dirty-pool scratch is cached on the Auction; growth is amortized across runs
				st.dirty = append(st.dirty, int32(r))
			}
		}
	}

	res.Converged = false
	res.Rounds = a.cfg.MaxRounds
	a.settle(res, p, choices)
	return res, ErrNoConvergence
}

// advance applies one round of incremental demand revelation at round t:
// gather the proxies touching a dirty pool, re-evaluate them, and
// recompute the excess-demand components their changed choices touch. It
// returns the updated active-bidder count.
//
//marketlint:allocfree
func (a *Auction) advance(st *incrementalState, p resource.Vector, choices []int, res *Result, z resource.Vector, t, active int) int {
	st.epoch++
	st.affected = st.affected[:0]
	for _, r := range st.dirty {
		for _, i := range st.poolProxies[r] {
			if st.retired[i] || st.proxyMark[i] == st.epoch {
				continue
			}
			st.proxyMark[i] = st.epoch
			st.affected = append(st.affected, i)
		}
	}

	st.newChoices = a.collectSubset(p, st.affected, st.newChoices)

	st.stale = st.stale[:0]
	for k, i := range st.affected {
		old, c := choices[i], st.newChoices[k]
		if c == old {
			continue
		}
		choices[i] = c
		if old >= 0 {
			for _, r := range a.proxies[i].sparse[old].idx {
				st.markStalePool(r)
			}
		}
		if c >= 0 {
			for _, r := range a.proxies[i].sparse[c].idx {
				st.markStalePool(r)
			}
		}
		switch {
		case c < 0:
			// Dropped out this round.
			active--
			res.DropRound[i] = t
			if st.pureBuyer[i] {
				st.retired[i] = true
			}
		case old < 0:
			// Re-entered: rising prices lifted a seller/trader bundle
			// back over its limit. Clear the stale drop round so the
			// diagnostic matches History.ActiveBidders.
			active++
			res.DropRound[i] = -1
		}
	}

	// When a large share of the pools went stale (the clock's opening
	// rounds, before demand localizes), a full rebuild in input order is
	// cheaper than per-pool re-summation — and is trivially bit-identical,
	// being the reference order itself.
	if len(st.stale)*8 > len(st.poolProxies) {
		for r := range z {
			z[r] = 0
		}
		for i, c := range choices {
			if c >= 0 {
				a.proxies[i].sparse[c].addInto(z)
			}
		}
		return active
	}
	// Re-sum each stale component from zero over the pool's proxy list in
	// ascending order — the dense rebuild's exact addition sequence for
	// that pool (see the determinism contract above).
	for _, r := range st.stale {
		var sum float64
		for _, i := range st.poolProxies[r] {
			if c := choices[i]; c >= 0 {
				if v, ok := a.proxies[i].sparse[c].valueAt(r); ok {
					sum += v
				}
			}
		}
		z[r] = sum
	}
	return active
}

// collectSubset evaluates the affected proxies at prices p, writing each
// result to out aligned with affected (out is grown as needed and
// returned). It is the affected-subset form of collect: the same
// parallel fan-out applies when the subset is large enough, and results
// are written to disjoint slots, so serial and parallel runs are
// identical.
//
//marketlint:allocfree
func (a *Auction) collectSubset(p resource.Vector, affected []int32, out []int) []int {
	if cap(out) < len(affected) {
		out = make([]int, len(affected))
	}
	out = out[:len(affected)]
	if !a.cfg.Parallel || len(affected) < parallelThreshold {
		for k, i := range affected {
			out[k] = a.proxies[i].choose(p)
		}
		return out
	}
	// The goroutine fan-out lives in its own function so its closure
	// cannot capture this function's reassigned `out` variable — that
	// capture would heap-box the slice header on every call, putting an
	// allocation on the serial path's steady-state rounds too.
	//marketlint:allow allocfree opt-in parallel fan-out; spawn cost is amortized over ≥64 evaluations
	a.collectSubsetParallel(p, affected, out)
	return out
}

// collectSubsetParallel evaluates the affected proxies over all CPUs,
// writing to disjoint slots of out.
func (a *Auction) collectSubsetParallel(p resource.Vector, affected []int32, out []int) {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(affected) {
		workers = len(affected)
	}
	var wg sync.WaitGroup
	chunk := (len(affected) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(affected) {
			hi = len(affected)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for k := lo; k < hi; k++ {
				out[k] = a.proxies[affected[k]].choose(p)
			}
		}(lo, hi)
	}
	wg.Wait()
}
