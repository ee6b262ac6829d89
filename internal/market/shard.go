package market

import (
	"sync"

	"clustermarket/internal/core"
)

// DefaultShards is the stripe count an Exchange uses when Config.Shards
// is zero. Eight stripes keep lock contention negligible up to the
// mid-size multicore boxes the web tier runs on while costing nothing on
// small machines; larger fleets can raise Config.Shards.
const DefaultShards = 8

// orderShard is one stripe of the order book. Orders are striped by ID:
// the order with ID k lives in shard k % nshards at slot k / nshards, so
// lookups are O(1) and submits in different stripes never contend.
type orderShard struct {
	mu sync.RWMutex
	// orders[j] holds the order with ID j*nshards + shardIndex. IDs are
	// allocated under mu from the append position, so slots are dense and
	// never nil.
	orders []*Order
	// open is the stripe's claim list: a lazily compacted superset of the
	// stripe's Status==Open orders, in ID order. Submit appends; cancels
	// and settlements leave their terminal orders in place to be dropped
	// by the next claimBatch compaction — so neither path pays a scan.
	open []*Order
	// openCount is the exact number of Status==Open orders in the stripe,
	// maintained on every status transition so OpenOrderCount is O(shards)
	// instead of a book scan.
	openCount int
}

// accountShard is one stripe of the account book, striped by team name.
type accountShard struct {
	mu       sync.RWMutex
	balances map[string]float64
	// openBuy is each team's summed positive limits over open orders —
	// maintained incrementally so Submit's budget check is O(1).
	openBuy map[string]float64
	// pk packs the bids its teams submit while another admission holds
	// the exchange's shared Packer (see packBid). Guarded by mu.
	pk core.Packer
}

// orderShardFor returns the stripe holding order id, or nil for a
// negative id.
//
//marketlint:allocfree
func (e *Exchange) orderShardFor(id int) *orderShard {
	if id < 0 {
		return nil
	}
	return &e.orderShards[id%len(e.orderShards)]
}

// accountShardFor returns the stripe holding the team's account (FNV-1a
// over the name).
//
//marketlint:allocfree
func (e *Exchange) accountShardFor(team string) *accountShard {
	h := uint32(2166136261)
	for i := 0; i < len(team); i++ {
		h = (h ^ uint32(team[i])) * 16777619
	}
	return &e.accountShards[h%uint32(len(e.accountShards))]
}

// liveOrder returns the live (internal) order with the given id, or nil.
func (e *Exchange) liveOrder(id int) *Order {
	os := e.orderShardFor(id)
	if os == nil {
		return nil
	}
	j := id / len(e.orderShards)
	os.mu.RLock()
	defer os.mu.RUnlock()
	if j >= len(os.orders) {
		return nil
	}
	return os.orders[j]
}

// mergeRuns merges per-stripe runs back into global ID order — for
// serial traffic, exactly the submission order the unsharded book used,
// which keeps batch assembly and display paths deterministic. Run s is
// all[ends[s-1]:ends[s]] (from 0 for s = 0) and is already in ascending
// ID order, as every stripe keeps its orders and its claim list, so a
// merge of the heads replaces a sort: O(len(all)·stripes) comparisons.
func mergeRuns[T any](all []T, ends []int, id func(T) int) []T {
	out := make([]T, 0, len(all))
	next := make([]int, len(ends))
	for s := 1; s < len(ends); s++ {
		next[s] = ends[s-1]
	}
	for len(out) < len(all) {
		best := -1
		for s, i := range next {
			if i < ends[s] && (best < 0 || id(all[i]) < id(all[next[best]])) {
				best = s
			}
		}
		out = append(out, all[next[best]])
		next[best]++
	}
	return out
}

// orderID keys mergeRuns over orders.
func orderID(o *Order) int { return o.ID }
