package market

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"clustermarket/internal/core"
	"clustermarket/internal/journal"
	"clustermarket/internal/resource"
)

// sharedBundle returns the index of the bundle of b whose backing array
// alloc is, or −1.
func sharedBundle(b *core.Bid, alloc resource.Vector) int {
	for k, q := range b.Bundles {
		if len(alloc) > 0 && len(q) == len(alloc) && &q[0] == &alloc[0] {
			return k
		}
	}
	return -1
}

// TestWonOrdersShareTheirBundle: a won order's Allocation is its bid's
// won bundle itself — after live settlement, after a snapshot restore
// and after WAL replay — including XOR bids won on a bundle other than
// the first and bids whose bundles are duplicates by value. Replay finds
// a decoded allocation's bundle by value, so of duplicates it keeps the
// first; values, packed form and grants are the same. The quota grants
// made from the packed bundles recover bit for bit.
func TestWonOrdersShareTheirBundle(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	j, _, err := journal.Open(dir, journal.Options{FsyncEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{InitialBudget: 1e9, Journal: j, SnapshotEvery: -1}
	e, err := NewExchange(testFleet(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, team := range []string{"xor", "dup", "vec"} {
		if err := e.OpenAccount(team); err != nil {
			t.Fatal(err)
		}
	}
	bundle := func(cluster string, qty float64) resource.Vector {
		q := e.reg.Zero()
		for _, d := range resource.StandardDimensions {
			q[e.reg.MustIndex(resource.Pool{Cluster: cluster, Dim: d})] = qty
		}
		return q
	}
	// want is the bundle each order wins live, by order ID.
	want := map[int]int{}
	submit := func(team string, bid *core.Bid, won int) {
		t.Helper()
		o, err := e.Submit(team, bid)
		if err != nil {
			t.Fatal(err)
		}
		want[o.ID] = won
	}
	wave := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			qty := 0.1 + 0.01*float64(i)
			// The hot r1 costs more, so the XOR bid wins its second bundle.
			submit("xor", &core.Bid{Bundles: []resource.Vector{bundle("r1", qty), bundle("r2", qty)}, Limit: 1e6}, 1)
			// Equal bundles cost the same: the tie goes to the first.
			dup := bundle("r2", qty)
			submit("dup", &core.Bid{Bundles: []resource.Vector{dup, dup}, Limit: 1e6}, 0)
			// The second duplicate's higher limit gives it the surplus.
			submit("vec", &core.Bid{Bundles: []resource.Vector{dup, dup}, BundleLimits: []float64{1e5, 1e6}}, 1)
		}
		if _, _, err := e.RunAuction(); err != nil {
			t.Fatal(err)
		}
	}
	check := func(tag string, x *Exchange, live bool) {
		t.Helper()
		won := 0
		for _, o := range x.Orders() {
			if o.Status != Won {
				continue
			}
			won++
			k := sharedBundle(o.Bid, o.Allocation)
			if k < 0 {
				t.Fatalf("%s: order %d's allocation is none of its bundles", tag, o.ID)
			}
			wantK := want[o.ID]
			if !live {
				wantK = slices.IndexFunc(o.Bid.Bundles, func(q resource.Vector) bool { return slices.Equal(q, o.Bid.Bundles[want[o.ID]]) })
			}
			if k != wantK {
				t.Errorf("%s: order %d shares bundle %d, want %d", tag, o.ID, k, wantK)
			}
		}
		if won != len(want) {
			t.Fatalf("%s: %d orders won, want all %d", tag, won, len(want))
		}
	}

	wave(4)
	if err := e.Snapshot(); err != nil {
		t.Fatal(err)
	}
	wave(3) // settled in the WAL tail after the snapshot
	check("live", e, true)
	j.Crash()

	j2, rec, err := journal.Open(dir, journal.Options{FsyncEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rec.SnapshotSeq == 0 || len(rec.Records) == 0 {
		t.Fatalf("want a snapshot and a WAL tail, got snapshot seq %d and %d records", rec.SnapshotSeq, len(rec.Records))
	}
	cfg.Journal = j2
	r, err := Recover(testFleet(t), cfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	check("recovered", r, false)
	for _, o := range e.Orders() {
		ro, err := r.Order(o.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ro.Allocation, o.Allocation) {
			t.Errorf("order %d: recovered allocation differs from the live one", o.ID)
		}
	}
	if got, live := r.fleet.Quotas().Grants(), e.fleet.Quotas().Grants(); !reflect.DeepEqual(got, live) {
		t.Errorf("recovered grants %+v, live %+v", got, live)
	}
}

// TestSettleRefusesForeignAllocation: an order-settled event whose
// allocation is none of the bid's bundles is a replay error that leaves
// the order Open and packed.
func TestSettleRefusesForeignAllocation(t *testing.T) {
	e := newTestExchange(t)
	if err := e.OpenAccount("a"); err != nil {
		t.Fatal(err)
	}
	o, err := e.SubmitProduct("a", "batch-compute", 1, []string{"r2"}, 50)
	if err != nil {
		t.Fatal(err)
	}
	entries := len(e.Ledger())
	for _, alloc := range []resource.Vector{nil, e.reg.Zero()} {
		err := e.applyEvent(&Event{Kind: EvOrderSettled, OrderID: o.ID, Auction: 1, Status: Won, Allocation: alloc, Payment: 1})
		if err == nil {
			t.Fatalf("settling on %v was accepted", alloc)
		}
	}
	live := e.liveOrder(o.ID)
	if live.Status != Open || !packed(live.Bid) {
		t.Fatalf("order is %s, packed=%v, after refused settlements", live.Status, packed(live.Bid))
	}
	if len(e.Ledger()) != entries {
		t.Fatal("a refused settlement posted to the ledger")
	}
}

// TestLedgerChunks: at 0, chunk−1, chunk and chunk+1 entries, Ledger,
// LedgerTail and a snapshot→restore round trip read exactly the flat
// slice the entries would make, and appending never moves an entry.
func TestLedgerChunks(t *testing.T) {
	for _, n := range []int{0, ledgerChunk - 1, ledgerChunk, ledgerChunk + 1} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			e := newTestExchange(t)
			var flat []LedgerEntry
			var first *LedgerEntry
			for i := 0; i < n; i++ {
				le := LedgerEntry{Auction: i / 7, Team: fmt.Sprintf("t%d", i%3), Amount: float64(i%11) - 4.75, Memo: fmt.Sprint("memo ", i)}
				e.appendLedger([]LedgerEntry{le})
				le.Seq = i
				flat = append(flat, le)
				if i == 0 {
					first = &e.ledger.chunks[0][0]
				} else if &e.ledger.chunks[0][0] != first {
					t.Fatalf("entry 0 moved when entry %d was appended", i)
				}
			}
			if got := len(e.ledger.chunks); got != (n+ledgerChunk-1)/ledgerChunk {
				t.Errorf("%d chunks for %d entries", got, n)
			}
			readsFlat := func(tag string, x *Exchange) {
				t.Helper()
				if got := x.Ledger(); !reflect.DeepEqual(got, flat) {
					t.Fatalf("%s: Ledger() has %d entries, differs from the flat %d", tag, len(got), len(flat))
				}
				for _, k := range []int{-1, 0, 1, 2, ledgerChunk - 1, ledgerChunk, ledgerChunk + 1, n - 1, n, n + 1, n + 5} {
					var want []LedgerEntry
					if k > 0 {
						want = flat[max(n-k, 0):]
						if len(want) == 0 {
							want = nil
						}
					}
					if got := x.LedgerTail(k); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: LedgerTail(%d) has %d entries, want %d", tag, k, len(got), len(want))
					}
				}
				var sum float64
				for _, le := range flat {
					sum += le.Amount
				}
				if got := x.ledger.sum(); got != sum {
					t.Fatalf("%s: chunked sum %v, flat sum %v", tag, got, sum)
				}
			}
			readsFlat("live", e)

			raw, err := json.Marshal(func() *exchangeState {
				st, err := e.buildStateLocked()
				if err != nil {
					t.Fatal(err)
				}
				return st
			}())
			if err != nil {
				t.Fatal(err)
			}
			r, err := NewExchange(testFleet(t), Config{InitialBudget: 1000})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.restoreState(raw); err != nil {
				t.Fatal(err)
			}
			readsFlat("restored", r)
			for _, c := range r.ledger.chunks[:max(len(r.ledger.chunks)-1, 0)] {
				if len(c) != ledgerChunk {
					t.Fatalf("restored ledger has a short chunk of %d before its last", len(c))
				}
			}
		})
	}
}
