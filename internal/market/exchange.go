package market

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"clustermarket/internal/cluster"
	"clustermarket/internal/core"
	"clustermarket/internal/journal"
	"clustermarket/internal/reserve"
	"clustermarket/internal/resource"
	"clustermarket/internal/stats"
	"clustermarket/internal/telemetry"
)

// OperatorAccount is the reserved account name under which the system
// operator sells spare capacity ("the company itself may be mapped into
// clock auction participants", Section V.A).
const OperatorAccount = "operator"

// ErrNoOpenOrders is returned by RunAuction and PreliminaryPrices when
// the order book is empty. The epoch loop treats it as an idle tick.
var ErrNoOpenOrders = errors.New("market: no open orders")

// OrderStatus tracks an order through its life cycle.
type OrderStatus int

const (
	// Open orders await the next auction.
	Open OrderStatus = iota
	// Won orders settled with an allocation.
	Won
	// Lost orders were priced out.
	Lost
	// Cancelled orders were withdrawn before settlement.
	Cancelled
	// Unsettled orders were retired after too many non-convergent
	// clocks: their batch never found clearing prices, so they settled
	// nothing. Without this cap a cycling trader pair would rejoin every
	// epoch and livelock the whole market.
	Unsettled
)

func (s OrderStatus) String() string {
	switch s {
	case Open:
		return "open"
	case Won:
		return "won"
	case Lost:
		return "lost"
	case Cancelled:
		return "cancelled"
	case Unsettled:
		return "unsettled"
	default:
		return fmt.Sprintf("OrderStatus(%d)", int(s))
	}
}

// Order is one submitted bid or offer.
type Order struct {
	ID     int
	Team   string
	Bid    *core.Bid
	Status OrderStatus
	// Auction is the auction number that settled the order (−1 while
	// open).
	Auction int
	// Attempts counts non-convergent clock runs the order survived
	// while open.
	Attempts int
	// Allocation and Payment are set when the order wins.
	Allocation resource.Vector
	Payment    float64

	// inAuction marks an order whose batch is being settled by an
	// in-flight clock. Such orders cannot be cancelled: a winner that
	// vanished mid-clock would break quota conservation (its
	// counterparties' allocations were computed assuming its
	// contribution). Guarded by the order's shard lock.
	inAuction bool
}

// Side reports whether the order is a pure bid (+1), pure offer (−1), or
// trade (0), from the bundle directions.
func (o *Order) Side() int {
	switch o.Bid.Class() {
	case core.PureBuyer:
		return +1
	case core.PureSeller:
		return -1
	default:
		return 0
	}
}

// snapshot copies the order, including a copy of the Bid struct so a
// caller scribbling on snapshot.Bid fields cannot reach the booked bid.
// The Order and Bid copies share one allocation. The bundle vectors and
// Allocation remain shared: both are frozen — bundles at submit time,
// and a won order's Allocation is one of those bundles — and must be
// treated as read-only by callers.
func (o *Order) snapshot() *Order {
	c := &struct {
		order Order
		bid   core.Bid
	}{order: *o}
	if o.Bid != nil {
		c.bid = *o.Bid
		c.order.Bid = &c.bid
	}
	return &c.order
}

// LedgerEntry is one double-entry billing record.
type LedgerEntry struct {
	Seq     int
	Auction int
	Team    string
	// Amount is the balance change (negative = paid out).
	Amount float64
	Memo   string
}

// AuctionRecord summarizes one settled auction for the market front end
// and the Table I statistics.
type AuctionRecord struct {
	Number    int
	Reserve   resource.Vector
	Prices    resource.Vector
	Rounds    int
	Converged bool
	// Orders counted at settlement time.
	Submitted, Settled int
	// Premiums holds γ_u for each settled order (Equation 5).
	Premiums []float64
}

// PremiumMedian returns the median of γ_u for the auction.
func (a *AuctionRecord) PremiumMedian() float64 { return stats.Median(a.Premiums) }

// PremiumMean returns the mean of γ_u for the auction.
func (a *AuctionRecord) PremiumMean() float64 { return stats.Mean(a.Premiums) }

// SettledFraction returns the fraction of submitted orders that settled.
func (a *AuctionRecord) SettledFraction() float64 {
	if a.Submitted == 0 {
		return 0
	}
	return float64(a.Settled) / float64(a.Submitted)
}

// Config parameterizes an Exchange.
type Config struct {
	// InitialBudget is granted to each newly opened account.
	InitialBudget float64
	// Weight is the reserve-pricing curve (default reserve.ExpSteep).
	Weight reserve.WeightFn
	// MarketableFraction is the share of each pool's *free* capacity the
	// operator offers for sale each auction (default 0.8).
	MarketableFraction float64
	// MaxAuctionAttempts is how many non-convergent clocks an open order
	// survives before it is retired as Unsettled (default 3). The cap
	// keeps one cycling trader pair from rejoining every epoch and
	// livelocking the market.
	MaxAuctionAttempts int
	// Shards is the number of stripes the order and account books are
	// split into (default DefaultShards). Submits, cancels, and reads in
	// different stripes never share a lock, so order entry scales with
	// CPUs instead of serializing on one book mutex.
	Shards int
	// Auction tuning; zero values select core defaults.
	Policy    core.IncrementPolicy
	Epsilon   float64
	MaxRounds int
	Parallel  bool
	// Engine selects the clock's demand-revelation engine; the zero value
	// is core.EngineIncremental (the O(affected bidders) fast path).
	Engine core.Engine
	// Partition selects the clock's sub-market decomposition; the zero
	// value is core.PartitionAuto, which clears independent connected
	// components of the bidder–pool graph on separate clocks (concurrently
	// under Parallel) with results bit-identical to the merged run.
	// core.PartitionOff forces the single merged clock.
	Partition core.PartitionMode
	// Journal, when non-nil, makes the exchange durable: every state
	// change is appended to the write-ahead log before it is applied, and
	// a snapshot is written every SnapshotEvery auctions. Nil keeps the
	// pure in-memory behavior with zero hot-path cost.
	Journal *journal.Journal
	// SnapshotEvery is the auction interval between journal snapshots
	// (default 64; negative disables snapshots). Ignored without Journal.
	SnapshotEvery int
	// Telemetry, when non-nil, receives every state-change event the
	// journal would — whether or not a journal is attached — published
	// to the firehose under source "market". With no subscriber the
	// publish path is one atomic load and a branch; events are not even
	// materialized.
	Telemetry *telemetry.Firehose
}

func (c *Config) applyDefaults() {
	if c.Weight == nil {
		c.Weight = reserve.ExpSteep
	}
	if c.MarketableFraction == 0 {
		c.MarketableFraction = 0.8
	}
	if c.InitialBudget == 0 {
		c.InitialBudget = 10000
	}
	if c.MaxAuctionAttempts <= 0 {
		c.MaxAuctionAttempts = 3
	}
	if c.Shards <= 0 {
		c.Shards = DefaultShards
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 64
	}
}

// Exchange is the trading platform: accounts, an order book, and the
// periodic clock auction that settles it.
//
// All methods are safe for concurrent use. The book is striped so the
// order pipeline is contention-free (the paper's one-auctioneer,
// many-traders split, scaled out):
//
//   - The order book is split into Config.Shards stripes keyed by order
//     ID, the account book into stripes keyed by team. Submits, cancels,
//     status polls, and balance reads in different stripes never touch
//     the same lock, and every stripe's critical section is O(1).
//   - The billing ledger and the auction history each have their own
//     lock; settlement appends a whole auction's ledger entries in one
//     critical section, so LedgerBalanced holds at every observable
//     instant.
//   - auctionMu serializes binding auctions (one auctioneer at a time).
//     The clock itself runs without any book lock: RunAuction claims the
//     open batch stripe by stripe, iterates the clock lock-free, then
//     settles stripe by stripe. Orders submitted meanwhile simply join
//     the next epoch's batch.
//
// Settlement is atomic per account (a win's budget-commitment release
// and payment debit happen under one stripe lock, so balances can never
// be overcommitted mid-settlement) but not across the whole book: a
// reader polling during settlement may see one order Won while another
// in the same auction is still marked Open a microsecond longer. The
// post-conditions — balanced ledger, non-negative balances, conserved
// quota — hold once RunAuction returns, which the race stress tests
// assert.
//
// Read accessors (Orders, OpenOrders, Ledger, History, …) return
// snapshots rather than aliases of internal slices; the frozen,
// write-once data a snapshot carries (bid bundle vectors, allocations,
// auction records) is shared and must be treated as read-only.
type Exchange struct {
	cfg     Config
	fleet   *cluster.Fleet
	reg     *resource.Registry
	catalog *Catalog
	pricer  *reserve.Pricer

	// auctionMu serializes RunAuction: one auctioneer at a time.
	auctionMu sync.Mutex
	// settleMu excludes budget disbursement from the settlement phase
	// only (Disburse's weight scan reads the quota ledger that settlement
	// writes). RunAuction takes it after the clock completes, so a
	// disbursement waits out a settlement — not an entire clock run.
	// Lock order: auctionMu before settleMu; shard locks are leaves.
	settleMu sync.Mutex

	// submitSeq spreads order entry round-robin across the order stripes;
	// for serial traffic this reproduces the unsharded book's sequential
	// ID assignment exactly.
	submitSeq     atomic.Uint64
	orderShards   []orderShard
	accountShards []accountShard

	ledgerMu sync.RWMutex
	ledger   []LedgerEntry

	histMu  sync.RWMutex
	history []*AuctionRecord

	// journal, when non-nil, receives every state change as an event
	// before it is applied (see event.go); fire (possibly nil) receives
	// the same events for live subscribers; delta tracks how PlaceOrder
	// and EvictTask have diverged the fleet from its as-built state so
	// snapshots can reproduce it.
	journal *journal.Journal
	fire    *telemetry.Firehose
	// metrics is the always-on atomic counter block behind /metrics;
	// counting is lock-free and increments happen on the live path only
	// (never during replay), so a recovered process restarts its
	// counters — the standard Prometheus counter-reset contract.
	metrics exchangeMetrics
	delta   fleetDelta
	// degraded is the journal-failure quiesce state machine (degrade.go):
	// set when an append exhausts its inline retries, cleared when a
	// journal Probe succeeds again.
	degraded degradeState
}

// NewExchange wires an exchange to a fleet. The registry is derived from
// the fleet's clusters.
func NewExchange(fleet *cluster.Fleet, cfg Config) (*Exchange, error) {
	if fleet == nil {
		return nil, errors.New("market: nil fleet")
	}
	cfg.applyDefaults()
	reg := fleet.Registry()
	if reg.Len() == 0 {
		return nil, errors.New("market: fleet has no clusters")
	}
	e := &Exchange{
		cfg:           cfg,
		fleet:         fleet,
		reg:           reg,
		catalog:       StandardCatalog(),
		pricer:        reserve.NewPricer(cfg.Weight),
		orderShards:   make([]orderShard, cfg.Shards),
		accountShards: make([]accountShard, cfg.Shards),
	}
	for i := range e.accountShards {
		e.accountShards[i].balances = make(map[string]float64)
		e.accountShards[i].openBuy = make(map[string]float64)
	}
	op := e.accountShardFor(OperatorAccount)
	op.balances[OperatorAccount] = 0
	e.journal = cfg.Journal
	e.fire = cfg.Telemetry
	return e, nil
}

// Registry returns the exchange's pool registry.
func (e *Exchange) Registry() *resource.Registry { return e.reg }

// Catalog returns the product catalog.
func (e *Exchange) Catalog() *Catalog { return e.catalog }

// Fleet returns the underlying fleet.
func (e *Exchange) Fleet() *cluster.Fleet { return e.fleet }

// Shards returns the stripe count of the order and account books.
func (e *Exchange) Shards() int { return len(e.orderShards) }

// OpenAccount creates a team account with the configured initial budget
// ("engineering teams were given budget dollars", Section V).
func (e *Exchange) OpenAccount(team string) error {
	if team == "" || team == OperatorAccount {
		return fmt.Errorf("market: invalid team name %q", team)
	}
	as := e.accountShardFor(team)
	as.mu.Lock()
	defer as.mu.Unlock()
	if _, ok := as.balances[team]; ok {
		return fmt.Errorf("market: account %q exists", team)
	}
	// The event captures the granted balance, so replay is independent of
	// the recovering process's configured budget.
	if e.materializing() {
		if err := e.emitEvent(&Event{Kind: EvAccountOpened, Team: team, Balance: e.cfg.InitialBudget}); err != nil {
			return err
		}
	}
	as.balances[team] = e.cfg.InitialBudget
	return nil
}

// Balance returns the team's budget balance.
func (e *Exchange) Balance(team string) (float64, error) {
	as := e.accountShardFor(team)
	as.mu.RLock()
	defer as.mu.RUnlock()
	b, ok := as.balances[team]
	if !ok {
		return 0, fmt.Errorf("market: no account %q", team)
	}
	return b, nil
}

// Submit places an order for team with the given bid. Buy-side limits
// must be covered by the team's balance. The caller keeps ownership of
// bid: it is cloned before entry — core.NewAuction holds bids by
// reference and the clock reads booked bids lock-free — so the caller is
// free to reuse its vectors after Submit returns. From then on the
// exchange owns the clone and never writes it again; a won order's
// Allocation is one of its bundles. The returned Order is a snapshot;
// poll Order/Orders for settlement status.
func (e *Exchange) Submit(team string, bid *core.Bid) (*Order, error) {
	if err := e.rejectIfDegraded(); err != nil {
		return nil, e.rejected(err)
	}
	if bid == nil {
		return nil, e.rejected(errors.New("market: nil bid"))
	}
	b := *bid
	b.Bundles = make([]resource.Vector, len(bid.Bundles))
	for i, v := range bid.Bundles {
		b.Bundles[i] = v.Clone()
	}
	b.BundleLimits = append([]float64(nil), bid.BundleLimits...)
	return e.book(team, &b)
}

// book validates and books a bid the exchange already owns: Submit's
// clone, or the bundles SubmitProduct built itself. b is frozen from
// here on.
func (e *Exchange) book(team string, b *core.Bid) (*Order, error) {
	if b.User == "" {
		b.User = team
	}
	if err := b.Validate(e.reg.Len()); err != nil {
		return nil, e.rejected(err)
	}

	// Budget pre-check on the team's account stripe, without committing.
	// MaxLimit is the bid's worst-case payment exposure: the scalar
	// Limit, or the largest per-bundle limit for vector-π bids. Checking
	// here keeps a rejected submit from advancing the round-robin stripe
	// pointer, so serial traffic reproduces the unsharded book's ID
	// sequence exactly.
	as := e.accountShardFor(team)
	exp := b.MaxLimit()
	budgetOK := func() error {
		bal, ok := as.balances[team]
		if !ok {
			return fmt.Errorf("market: no account %q", team)
		}
		if exp > 0 {
			if committed := as.openBuy[team]; exp+committed > bal {
				return fmt.Errorf("market: %q limit %.2f exceeds available budget %.2f",
					team, exp, bal-committed)
			}
		}
		return nil
	}
	as.mu.Lock()
	err := budgetOK()
	as.mu.Unlock()
	if err != nil {
		return nil, e.rejected(err)
	}

	// Book the order into the next stripe round-robin. The ID is
	// allocated under the stripe lock from the append position, so the
	// stripe's slice stays dense and in ID order. The account stripe is
	// re-locked *nested inside* the order stripe (the global lock order —
	// account stripes are always the inner lock) so the budget re-check,
	// commitment, event log, and booking form one atomic unit: a journal
	// snapshot, which holds every stripe lock, can never observe the
	// commitment without the logged order, so replay never double-commits.
	n := len(e.orderShards)
	sIdx := int(e.submitSeq.Add(1)-1) % n
	os := &e.orderShards[sIdx]
	os.mu.Lock()
	as.mu.Lock()
	if err := budgetOK(); err != nil {
		// Only a concurrent drain of the account between the pre-check and
		// here lands in this branch; the consumed stripe slot is harmless
		// (IDs derive from stripe lengths, not the rotation counter).
		as.mu.Unlock()
		os.mu.Unlock()
		return nil, e.rejected(err)
	}
	o := &Order{ID: len(os.orders)*n + sIdx, Team: team, Bid: b, Status: Open, Auction: -1}
	if e.materializing() {
		if err := e.emitEvent(&Event{Kind: EvOrderSubmitted, OrderID: o.ID, Team: team, Bid: b}); err != nil {
			// Un-consume the round-robin slot so a post-heal resubmit
			// lands on the same stripe with the same ID (replay's
			// applyOrderSubmitted advances the counter once per *logged*
			// order, so this keeps live and replayed counters in step).
			e.submitSeq.Add(^uint64(0))
			as.mu.Unlock()
			os.mu.Unlock()
			return nil, err
		}
	}
	e.bookOrderLocked(os, as, o)
	as.mu.Unlock()
	snap := o.snapshot()
	os.mu.Unlock()
	e.metrics.submitted.Add(1)
	return snap, nil
}

// releaseCommitment removes an order leaving the Open state from its
// team's running buy commitment.
//
//marketlint:allocfree
func (e *Exchange) releaseCommitment(o *Order) {
	if exp := o.Bid.MaxLimit(); exp > 0 {
		as := e.accountShardFor(o.Team)
		as.mu.Lock()
		as.openBuy[o.Team] -= exp
		as.mu.Unlock()
	}
}

// settleWin atomically releases the winning order's budget commitment and
// debits its payment on the team's account stripe. Doing both under one
// lock matters: releasing first would let a racing Submit commit the
// balance the payment is about to take, driving the account negative at
// the next settlement.
func (e *Exchange) settleWin(o *Order) {
	as := e.accountShardFor(o.Team)
	as.mu.Lock()
	if exp := o.Bid.MaxLimit(); exp > 0 {
		as.openBuy[o.Team] -= exp
	}
	as.balances[o.Team] -= o.Payment
	as.mu.Unlock()
}

// creditBalance adjusts a balance (the ledger entry is appended
// separately, batched per auction).
func (e *Exchange) creditBalance(team string, amount float64) {
	as := e.accountShardFor(team)
	as.mu.Lock()
	as.balances[team] += amount
	as.mu.Unlock()
}

// appendLedger assigns sequence numbers and appends a batch of entries in
// one critical section, so the ledger never exposes a half-posted trade.
func (e *Exchange) appendLedger(entries []LedgerEntry) {
	if len(entries) == 0 {
		return
	}
	e.ledgerMu.Lock()
	for i := range entries {
		entries[i].Seq = len(e.ledger)
		e.ledger = append(e.ledger, entries[i])
	}
	e.ledgerMu.Unlock()
}

// SubmitProduct is the two-step bid entry path of Figure 4: the team
// requests qty units of a catalog product, deployable in any of the named
// clusters (XOR), with a limit price. The bundles it builds are fresh and
// owned by the exchange, so they are booked without Submit's clone.
func (e *Exchange) SubmitProduct(team, product string, qty float64, clusters []string, limit float64) (*Order, error) {
	p, err := e.catalog.Lookup(product)
	if err != nil {
		return nil, e.rejected(err)
	}
	// qty <= 0 alone would wave NaN through (every comparison with NaN
	// is false) and let it poison the cover vector; a non-positive or
	// non-finite limit would book an order that can never win but still
	// sits in every clock.
	if math.IsNaN(qty) || math.IsInf(qty, 0) || qty <= 0 {
		return nil, e.rejected(fmt.Errorf("market: quantity must be positive, got %g", qty))
	}
	if math.IsNaN(limit) || math.IsInf(limit, 0) || limit <= 0 {
		return nil, e.rejected(fmt.Errorf("market: limit must be a positive, finite number, got %g", limit))
	}
	if len(clusters) == 0 {
		return nil, e.rejected(errors.New("market: no clusters named"))
	}
	cover := p.Cover(qty)
	bundles := make([]resource.Vector, 0, len(clusters))
	for _, cl := range clusters {
		v := e.reg.Zero()
		found := false
		for _, d := range resource.StandardDimensions {
			if i, ok := e.reg.Index(resource.Pool{Cluster: cl, Dim: d}); ok {
				v[i] = cover.Get(d)
				found = true
			}
		}
		if !found {
			return nil, e.rejected(fmt.Errorf("market: unknown cluster %q", cl))
		}
		bundles = append(bundles, v)
	}
	if err := e.rejectIfDegraded(); err != nil {
		return nil, e.rejected(err)
	}
	return e.book(team, &core.Bid{User: team + "/" + product, Bundles: bundles, Limit: limit})
}

// Cancel withdraws an open order. An order whose batch is currently
// being settled by an in-flight auction cannot be withdrawn — its bid
// is already in the clock, and counterparty allocations depend on it.
func (e *Exchange) Cancel(id int) error {
	o := e.liveOrder(id)
	if o == nil {
		return fmt.Errorf("market: no order %d", id)
	}
	os := e.orderShardFor(id)
	os.mu.Lock()
	if o.Status != Open {
		os.mu.Unlock()
		return fmt.Errorf("market: order %d is %s", id, o.Status)
	}
	if o.inAuction {
		os.mu.Unlock()
		return fmt.Errorf("market: order %d is in a settling auction", id)
	}
	// Log and mutate under the same stripe critical section as the check:
	// dropping the lock in between would let a claimBatch sweep the order
	// into a clock the journaled cancellation says never saw it.
	if e.materializing() {
		if err := e.emitEvent(&Event{Kind: EvOrderCancelled, OrderID: id}); err != nil {
			os.mu.Unlock()
			return err
		}
	}
	o.Status = Cancelled
	os.openCount--
	os.mu.Unlock()
	e.releaseCommitment(o)
	e.metrics.cancelled.Add(1)
	return nil
}

// Order returns a snapshot of the order with the given id. Striped IDs
// make this O(1): shard k%N, slot k/N.
func (e *Exchange) Order(id int) (*Order, error) {
	os := e.orderShardFor(id)
	if os != nil {
		j := id / len(e.orderShards)
		os.mu.RLock()
		if j < len(os.orders) {
			snap := os.orders[j].snapshot()
			os.mu.RUnlock()
			return snap, nil
		}
		os.mu.RUnlock()
	}
	return nil, fmt.Errorf("market: no order %d", id)
}

// OpenOrderCount returns the number of orders awaiting the next auction,
// summing the per-stripe counters instead of scanning the book.
func (e *Exchange) OpenOrderCount() int {
	n := 0
	for s := range e.orderShards {
		os := &e.orderShards[s]
		os.mu.RLock()
		n += os.openCount
		os.mu.RUnlock()
	}
	return n
}

// OpenOrders returns snapshots of the orders awaiting the next auction,
// in ID order.
func (e *Exchange) OpenOrders() []*Order {
	var out []*Order
	for s := range e.orderShards {
		os := &e.orderShards[s]
		os.mu.RLock()
		for _, o := range os.open {
			if o.Status == Open {
				out = append(out, o.snapshot())
			}
		}
		os.mu.RUnlock()
	}
	sortOrdersByID(out)
	return out
}

// lastClearingPrices returns the prices of the most recent converged
// auction, or nil when none exists. A failed clock's final prices are
// not clearing prices and must never be displayed as market prices.
func (e *Exchange) lastClearingPrices() resource.Vector {
	e.histMu.RLock()
	defer e.histMu.RUnlock()
	for i := len(e.history) - 1; i >= 0; i-- {
		if e.history[i].Converged {
			return e.history[i].Prices
		}
	}
	return nil
}

// LastClearingPrices returns the settlement prices of the most recent
// converged auction, or nil before the first one.
func (e *Exchange) LastClearingPrices() resource.Vector { return e.lastClearingPrices() }

// Orders returns snapshots of every order ever submitted, in ID order —
// the full-dump path used by tests and batch consumers. Interactive
// pollers should prefer OrdersTail, which bounds the copy.
func (e *Exchange) Orders() []*Order {
	var out []*Order
	for s := range e.orderShards {
		os := &e.orderShards[s]
		os.mu.RLock()
		for _, o := range os.orders {
			out = append(out, o.snapshot())
		}
		os.mu.RUnlock()
	}
	sortOrdersByID(out)
	return out
}

// OrdersTail returns snapshots of the limit highest-ID (most recent)
// orders in ID order — the bounded read path for display pollers, which
// snapshots O(limit) orders instead of the whole book. A non-positive
// limit returns nil.
func (e *Exchange) OrdersTail(limit int) []*Order {
	if limit <= 0 {
		return nil
	}
	// Stripe slots are dense (slot j holds ID j*n + s), so each stripe's
	// candidate tail IDs follow from its length alone — no order is
	// touched, let alone snapshotted, until the global top-limit IDs are
	// known.
	n := len(e.orderShards)
	var ids []int
	for s := range e.orderShards {
		os := &e.orderShards[s]
		os.mu.RLock()
		size := len(os.orders)
		os.mu.RUnlock()
		start := size - limit
		if start < 0 {
			start = 0
		}
		for j := start; j < size; j++ {
			ids = append(ids, j*n+s)
		}
	}
	sort.Ints(ids)
	if len(ids) > limit {
		ids = ids[len(ids)-limit:]
	}
	// The selected IDs form a contiguous slot tail per stripe (they are
	// the globally largest), so each stripe is snapshotted as one range
	// under a single lock acquisition.
	type span struct{ lo, hi int }
	spans := make([]span, n)
	for s := range spans {
		spans[s] = span{lo: -1, hi: -1}
	}
	for _, id := range ids {
		s, j := id%n, id/n
		if spans[s].lo < 0 || j < spans[s].lo {
			spans[s].lo = j
		}
		if j > spans[s].hi {
			spans[s].hi = j
		}
	}
	out := make([]*Order, 0, len(ids))
	for s, sp := range spans {
		if sp.lo < 0 {
			continue
		}
		os := &e.orderShards[s]
		os.mu.RLock()
		for j := sp.lo; j <= sp.hi && j < len(os.orders); j++ {
			out = append(out, os.orders[j].snapshot())
		}
		os.mu.RUnlock()
	}
	sortOrdersByID(out)
	return out
}

// Ledger returns a copy of the billing entries — the full-dump path.
// Display pollers should prefer LedgerTail.
func (e *Exchange) Ledger() []LedgerEntry {
	e.ledgerMu.RLock()
	defer e.ledgerMu.RUnlock()
	return append([]LedgerEntry(nil), e.ledger...)
}

// LedgerTail returns the most recent limit billing entries, oldest
// first. A non-positive limit returns nil.
func (e *Exchange) LedgerTail(limit int) []LedgerEntry {
	if limit <= 0 {
		return nil
	}
	e.ledgerMu.RLock()
	defer e.ledgerMu.RUnlock()
	start := len(e.ledger) - limit
	if start < 0 {
		start = 0
	}
	return append([]LedgerEntry(nil), e.ledger[start:]...)
}

// History returns the settled auction records — the full-dump path.
// Records are immutable once appended, so only the slice is copied.
// Display pollers should prefer HistoryTail.
func (e *Exchange) History() []*AuctionRecord {
	e.histMu.RLock()
	defer e.histMu.RUnlock()
	return append([]*AuctionRecord(nil), e.history...)
}

// HistoryTail returns the most recent limit auction records, oldest
// first. A non-positive limit returns nil.
func (e *Exchange) HistoryTail(limit int) []*AuctionRecord {
	if limit <= 0 {
		return nil
	}
	e.histMu.RLock()
	defer e.histMu.RUnlock()
	start := len(e.history) - limit
	if start < 0 {
		start = 0
	}
	return append([]*AuctionRecord(nil), e.history[start:]...)
}

// AuctionCount returns the number of auctions attempted so far (the
// length of History, without copying it).
func (e *Exchange) AuctionCount() int {
	e.histMu.RLock()
	defer e.histMu.RUnlock()
	return len(e.history)
}

// appendHistory publishes a settled auction record.
func (e *Exchange) appendHistory(rec *AuctionRecord) {
	e.histMu.Lock()
	e.history = append(e.history, rec)
	e.histMu.Unlock()
}

// ReservePrices computes the current congestion-weighted reserve price
// vector p̃ = φ(ψ)·c from live fleet utilization (Section IV).
func (e *Exchange) ReservePrices() (resource.Vector, error) {
	util := e.fleet.UtilizationVector(e.reg)
	cost := e.fleet.CostVector(e.reg)
	return e.pricer.Prices(e.reg, util, cost)
}

// operatorSupply builds the operator's sell-side bids: a fraction of
// each pool's free capacity, one bid per cluster, each with a minimal
// ask (the reserve prices themselves do the price flooring, since the
// clock starts there). The per-cluster split matters to the sub-market
// decomposition: a single planet-wide supply bundle would weld every
// cluster into one connected component of the bidder–pool graph, while
// per-cluster offers — each cluster's capacity is a separate divisible
// supply anyway — leave regional demand free to clear on independent
// clocks. Clusters are visited in registry first-seen order, so the bid
// sequence is deterministic.
func (e *Exchange) operatorSupply() []*core.Bid {
	free := e.fleet.FreeVector(e.reg)
	var out []*core.Bid
	for _, cluster := range e.reg.Clusters() {
		var supply resource.Vector
		for _, i := range e.reg.ClusterPools(cluster) {
			if q := free[i] * e.cfg.MarketableFraction; q > 0 {
				if supply == nil {
					supply = e.reg.Zero()
				}
				supply[i] = -q
			}
		}
		if supply != nil {
			out = append(out, &core.Bid{User: OperatorAccount, Bundles: []resource.Vector{supply}, Limit: -0.000001})
		}
	}
	return out
}

// assemble snapshots the open batch and maps it, plus operator supply,
// into clock-auction bids without claiming the batch (the non-binding
// path used by PreliminaryPrices). Bids are frozen, so reading them
// lock-free afterwards is safe.
func (e *Exchange) assemble() ([]*core.Bid, []*Order, error) {
	var open []*Order
	for s := range e.orderShards {
		os := &e.orderShards[s]
		os.mu.RLock()
		for _, o := range os.open {
			if o.Status == Open {
				open = append(open, o)
			}
		}
		os.mu.RUnlock()
	}
	if len(open) == 0 {
		return nil, nil, ErrNoOpenOrders
	}
	sortOrdersByID(open)
	bids := make([]*core.Bid, 0, len(open)+1)
	for _, o := range open {
		bids = append(bids, o.Bid)
	}
	bids = append(bids, e.operatorSupply()...)
	return bids, open, nil
}

// claimBatch assembles the open batch for a binding auction and marks
// every order in it as in-auction, so it cannot be cancelled while the
// clock runs. Each stripe is claimed under its own lock and compacted in
// the same pass (terminal orders left behind by earlier settlements are
// dropped from the claim list here, so settlement itself never scans);
// the merged batch is then sorted back into global ID order, preserving
// the unsharded book's batch semantics. The batch must later be released
// — by settlement or by releaseBatch on an error path.
func (e *Exchange) claimBatch() ([]*core.Bid, []*Order, error) {
	var open []*Order
	for s := range e.orderShards {
		os := &e.orderShards[s]
		os.mu.Lock()
		kept := os.open[:0]
		for _, o := range os.open {
			if o.Status == Open {
				o.inAuction = true
				kept = append(kept, o)
				open = append(open, o)
			}
		}
		// Drop the compacted tail's pointers so settled orders are not
		// pinned by the claim list's backing array.
		for i := len(kept); i < len(os.open); i++ {
			os.open[i] = nil
		}
		os.open = kept
		os.mu.Unlock()
	}
	if len(open) == 0 {
		return nil, nil, ErrNoOpenOrders
	}
	sortOrdersByID(open)
	bids := make([]*core.Bid, 0, len(open)+1)
	for _, o := range open {
		bids = append(bids, o.Bid)
	}
	bids = append(bids, e.operatorSupply()...)
	return bids, open, nil
}

// releaseBatch clears the in-auction marks after an auction that never
// reached settlement.
func (e *Exchange) releaseBatch(open []*Order) {
	for _, o := range open {
		os := e.orderShardFor(o.ID)
		os.mu.Lock()
		o.inAuction = false
		os.mu.Unlock()
	}
}

// PreliminaryPrices runs a non-binding simulation of the clock auction
// over the current open orders, as the platform does "at periodic
// intervals during the bid collection phase" (Section V.A), and returns
// the preliminary settlement prices.
//
// The converged flag reports whether the simulated clock cleared. A
// clock that hits MaxRounds still returns its final (non-clearing)
// prices alongside converged=false and ErrNoConvergence: the bid window
// is exactly where in-progress prices are useful feedback, so display
// paths should render them marked preliminary rather than fail.
func (e *Exchange) PreliminaryPrices() (prices resource.Vector, converged bool, err error) {
	bids, _, err := e.assemble()
	if err != nil {
		return nil, false, err
	}
	start, err := e.ReservePrices()
	if err != nil {
		return nil, false, err
	}
	a, err := core.NewAuction(e.reg, bids, core.Config{
		Start:     start,
		Policy:    e.cfg.Policy,
		Epsilon:   e.cfg.Epsilon,
		MaxRounds: e.cfg.MaxRounds,
		Parallel:  e.cfg.Parallel,
		Engine:    e.cfg.Engine,
		Partition: e.cfg.Partition,
	})
	if err != nil {
		return nil, false, err
	}
	res, err := a.Run()
	if res == nil {
		return nil, false, err
	}
	return res.Prices, res.Converged, err
}

// RunAuction executes one binding auction over the open orders: it runs
// the clock, settles payments into accounts and the billing ledger,
// adjusts fleet quotas, marks orders won/lost, and appends an
// AuctionRecord. The core result is returned for inspection.
//
// Auctions are serialized (one auctioneer), but the clock itself runs
// without holding any book lock: submits and reads proceed concurrently,
// and orders arriving mid-run join the next batch. Orders already in the
// settling batch are claimed for its duration and cannot be cancelled.
// Settlement walks the batch claiming each order's stripe briefly; see
// the Exchange doc comment for the (per-account atomic) consistency
// model readers observe mid-settlement.
//
// A clock that fails to converge (core.ErrNoConvergence) stopped at
// non-clearing prices, so nothing settles: orders stay Open for the next
// epoch, no money moves, and the appended record shows Converged=false
// with zero settled orders.
//
// Settlement is journaled as one batch — every per-order event plus the
// auction record, one write and one fsync — before any of it is
// applied. A batch the journal cannot persist settles nothing: the
// claimed orders return to Open, the error is returned, and the
// exchange quiesces (see ErrDegraded).
func (e *Exchange) RunAuction() (*AuctionRecord, *core.Result, error) {
	// A degraded exchange probes the journal on entry (rate-limited by
	// the resume backoff schedule) and refuses to run the clock while the
	// disk is sick: an auction whose settlement events cannot be
	// journaled would either abort mid-batch or acknowledge unpersisted
	// state, and quiescing is cheaper than both.
	if e.Degraded() {
		if err := e.TryResume(false); err != nil {
			return nil, nil, ErrDegraded
		}
	}
	e.auctionMu.Lock()
	defer e.auctionMu.Unlock()

	bids, open, err := e.claimBatch()
	if err != nil {
		return nil, nil, err
	}
	start, err := e.ReservePrices()
	if err != nil {
		e.releaseBatch(open)
		return nil, nil, err
	}
	a, err := core.NewAuction(e.reg, bids, core.Config{
		Start:     start,
		Policy:    e.cfg.Policy,
		Epsilon:   e.cfg.Epsilon,
		MaxRounds: e.cfg.MaxRounds,
		Parallel:  e.cfg.Parallel,
		Engine:    e.cfg.Engine,
		Partition: e.cfg.Partition,
	})
	if err != nil {
		e.releaseBatch(open)
		return nil, nil, err
	}
	res, runErr := a.Run()
	if runErr != nil && res == nil {
		e.releaseBatch(open)
		return nil, nil, runErr
	}

	// The clock is done; only the settlement phase excludes Disburse.
	e.settleMu.Lock()
	defer e.settleMu.Unlock()

	// auctionMu serializes history appends, so the next number is stable
	// across the whole settlement.
	num := e.AuctionCount() + 1
	rec := &AuctionRecord{
		Number:    num,
		Reserve:   start,
		Prices:    res.Prices,
		Rounds:    res.Rounds,
		Converged: res.Converged,
		Submitted: len(open),
	}
	// From here on, every state change flows through the event stream:
	// each decision is materialized as an Event, the per-order events
	// and then the auction-cleared record are journaled as one batch,
	// and each is published and applied by the same applyEvent layer
	// recovery replays. A crash that tears the batch leaves a prefix of
	// whole frames without the record: the replayed book shows a
	// partially settled batch — per-order events are self-contained —
	// and the next process's clock reuses the auction number.
	evs := make([]*Event, 0, len(open)+1)
	var unsettled uint64
	if runErr != nil {
		// Failed clock: the final prices are not clearing prices, so
		// settling them would move money at arbitrary levels. Record the
		// attempt and leave the batch open — but retire orders whose
		// batch has now failed MaxAuctionAttempts times, so a cycling
		// trader pair cannot livelock every future epoch.
		for _, o := range open {
			if o.Attempts+1 >= e.cfg.MaxAuctionAttempts {
				evs = append(evs, &Event{Kind: EvOrderSettled, OrderID: o.ID, Auction: num,
					Status: Unsettled, Attempts: o.Attempts + 1})
				unsettled++
			} else {
				evs = append(evs, &Event{Kind: EvOrderAttempted, OrderID: o.ID, Auction: num,
					Attempts: o.Attempts + 1})
			}
		}
	} else {
		// Settle orders (indices in `bids` match `open` for i < len(open)).
		// Every order in the batch is still Open: the in-auction mark
		// blocks cancellation while the clock runs. Each winner's ledger
		// pair is posted atomically by the applier, so LedgerBalanced
		// holds at every observable instant.
		for i, o := range open {
			if !res.IsWinner(i) {
				evs = append(evs, &Event{Kind: EvOrderSettled, OrderID: o.ID, Auction: num, Status: Lost})
				continue
			}
			evs = append(evs, &Event{Kind: EvOrderSettled, OrderID: o.ID, Auction: num, Status: Won,
				Allocation: res.Allocations[i], Payment: res.Payments[i]})
			rec.Settled++
			// γ_u is measured against the limit that governed the *winning*
			// bundle: for vector-limit bids the scalar Limit is ignored by the
			// proxy, so using it here would corrupt the Table I statistics.
			rec.Premiums = append(rec.Premiums, core.Premium(o.Bid.LimitFor(res.ChosenBundle[i]), res.Payments[i]))
		}
		// The operator's supply bid exists to inject capacity and anchor
		// the clock at the reserve prices; its money flow is already
		// captured by the counterparty credits the winners' settlement
		// events post (the exchange clears every trade against the
		// operator account), so no further entry is needed here.
	}
	evs = append(evs, &Event{Kind: EvAuctionCleared, Record: rec})
	if err := e.journalEvents(evs...); err != nil {
		e.releaseBatch(open)
		return nil, nil, err
	}
	for _, ev := range evs {
		e.fire.Publish(EventSource, ev.Kind, ev)
		if err := e.applyEvent(ev); err != nil {
			return nil, nil, err
		}
	}
	e.metrics.auctions.Add(1)
	if runErr != nil {
		e.metrics.unsettled.Add(unsettled)
		e.metrics.noConvergence.Add(1)
	} else {
		e.metrics.won.Add(uint64(rec.Settled))
		e.metrics.lost.Add(uint64(len(open) - rec.Settled))
		e.metrics.converged.Add(1)
	}
	e.metrics.rounds.Add(uint64(res.Rounds))
	if err := e.maybeSnapshotLocked(num); err != nil {
		return rec, res, err
	}
	return rec, res, runErr
}

// LedgerBalanced reports whether all ledger entries sum to zero (every
// debit has a matching credit).
func (e *Exchange) LedgerBalanced(eps float64) bool {
	e.ledgerMu.RLock()
	defer e.ledgerMu.RUnlock()
	var s float64
	for _, le := range e.ledger {
		s += le.Amount
	}
	return s < eps && s > -eps
}

// BuyCommitments returns a snapshot of every team's running buy-side
// budget commitment — the exposure reserved for its open buy orders. The
// invariant kernel compares it against a scan of the open book: at any
// quiescent instant the two must agree exactly (the O(1) incremental
// counters are only a cache of the book's true exposure). Teams with zero
// commitment are omitted.
func (e *Exchange) BuyCommitments() map[string]float64 {
	out := make(map[string]float64)
	for s := range e.accountShards {
		as := &e.accountShards[s]
		as.mu.RLock()
		for team, exp := range as.openBuy {
			if exp != 0 {
				out[team] = exp
			}
		}
		as.mu.RUnlock()
	}
	return out
}

// Teams lists the non-operator accounts in sorted order.
func (e *Exchange) Teams() []string {
	var out []string
	for s := range e.accountShards {
		as := &e.accountShards[s]
		as.mu.RLock()
		//marketlint:orderfree out is sorted once the shard sweep completes
		for t := range as.balances {
			if t != OperatorAccount {
				out = append(out, t)
			}
		}
		as.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}
