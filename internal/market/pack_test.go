package market

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"clustermarket/internal/core"
	"clustermarket/internal/journal"
)

// packed reports whether b carries a core.Bid.Pack memo.
func packed(b *core.Bid) bool {
	return !reflect.ValueOf(b).Elem().FieldByName("pack").IsNil()
}

// checkPacks requires every Open order's bid to be packed and every
// other order's to be unpacked: the memo lives exactly as long as the
// order is Open.
func checkPacks(t *testing.T, tag string, e *Exchange) {
	t.Helper()
	for s := range e.orderShards {
		os := &e.orderShards[s]
		os.mu.RLock()
		for _, o := range os.orders {
			if got, want := packed(o.Bid), o.Status == Open; got != want {
				t.Errorf("%s: order %d is %s but packed=%v", tag, o.ID, o.Status, got)
			}
		}
		os.mu.RUnlock()
	}
}

// churn submits from several goroutines at once, cancelling every third
// order right after it is booked.
func churn(t *testing.T, e *Exchange, teams, each int) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < teams; g++ {
		wg.Add(1)
		go func(team string) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				o, err := e.SubmitProduct(team, "batch-compute", 1, []string{"r1", "r2"}[i%2:], float64(5+i%7))
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if i%3 == 0 {
					if err := e.Cancel(o.ID); err != nil {
						t.Errorf("cancel: %v", err)
					}
				}
			}
		}(fmt.Sprintf("team%d", g))
	}
	wg.Wait()
}

// TestClaimMergeMatchesSort: the claimed batch, merged from the stripes'
// ID-ordered claim lists, is exactly the open book sorted by ID — after
// concurrent submits and cancels, and again after a snapshot restore and
// WAL replay — and the non-binding assembly hands the auction copies of
// the very same bids.
func TestClaimMergeMatchesSort(t *testing.T) {
	const teams = 4
	dir := filepath.Join(t.TempDir(), "wal")
	j, _, err := journal.Open(dir, journal.Options{FsyncEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{InitialBudget: 1e9, Shards: 5, Journal: j, SnapshotEvery: -1}
	e, err := NewExchange(testFleet(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < teams; g++ {
		if err := e.OpenAccount(fmt.Sprintf("team%d", g)); err != nil {
			t.Fatal(err)
		}
	}
	churn(t, e, teams, 30)
	if _, _, err := e.RunAuction(); err != nil {
		t.Fatal(err)
	}
	churn(t, e, teams, 30)
	if err := e.Snapshot(); err != nil {
		t.Fatal(err)
	}
	churn(t, e, teams, 20) // the WAL tail after the snapshot
	j.Crash()

	j2, rec, err := journal.Open(dir, journal.Options{FsyncEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	cfg.Journal = j2
	r, err := Recover(testFleet(t), cfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	checkPacks(t, "recovered", r)
	churn(t, r, teams, 25)
	checkPacks(t, "recovered after churn", r)

	var want []*Order
	for s := range r.orderShards {
		for _, o := range r.orderShards[s].orders {
			if o.Status == Open {
				want = append(want, o)
			}
		}
	}
	sort.Slice(want, func(i, k int) bool { return want[i].ID < want[k].ID })

	copies, err := r.assemble()
	if err != nil {
		t.Fatal(err)
	}
	bids, open, err := r.claimBatch()
	if err != nil {
		t.Fatal(err)
	}
	defer r.releaseBatch(open)
	if len(open) != len(want) {
		t.Fatalf("claimed %d orders, the book has %d open", len(open), len(want))
	}
	for i, o := range open {
		if o != want[i] {
			t.Fatalf("claim %d is order %d, sorted book says %d", i, o.ID, want[i].ID)
		}
		if bids[i] != o.Bid || !packed(o.Bid) {
			t.Fatalf("claim %d: bid is not the order's packed bid", i)
		}
		if copies[i] == o.Bid || !reflect.DeepEqual(*copies[i], *o.Bid) {
			t.Fatalf("assemble %d: not a copy of order %d's bid", i, o.ID)
		}
	}
	if len(copies) != len(bids) {
		t.Fatalf("assemble gave %d bids, claim %d", len(copies), len(bids))
	}
}

// TestConcurrentPackUnpack runs the paths that pack and unpack bids —
// SubmitProduct, Cancel, RunAuction's settlement — against
// PreliminaryPrices' lock-free auction, for the race detector: the
// non-binding auction reads bid copies taken under the stripe locks, so
// an Unpack racing it is never observed. Afterwards the memo must live
// exactly as long as each order is Open.
func TestConcurrentPackUnpack(t *testing.T) {
	e, err := NewExchange(testFleet(t), Config{InitialBudget: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	const teams = 2
	for g := 0; g < teams; g++ {
		if err := e.OpenAccount(fmt.Sprintf("team%d", g)); err != nil {
			t.Fatal(err)
		}
	}
	ids := make(chan int, 64)
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(3)
	go func() { // canceller: may lose the race with settlement
		defer bg.Done()
		for id := range ids {
			_ = e.Cancel(id)
		}
	}()
	go func() { // non-binding pricing
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := e.PreliminaryPrices(); err != nil && !errors.Is(err, ErrNoOpenOrders) && !errors.Is(err, core.ErrNoConvergence) {
				t.Errorf("PreliminaryPrices: %v", err)
				return
			}
		}
	}()
	go func() { // auctioneer
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := e.RunAuction(); err != nil && !errors.Is(err, ErrNoOpenOrders) {
				t.Errorf("RunAuction: %v", err)
				return
			}
		}
	}()
	var subs sync.WaitGroup
	for g := 0; g < teams; g++ {
		subs.Add(1)
		go func(team string) {
			defer subs.Done()
			for i := 0; i < 150; i++ {
				o, err := e.SubmitProduct(team, "batch-compute", 1, []string{"r2"}, float64(3+i%5))
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if i%3 == 0 {
					ids <- o.ID
				}
			}
		}(fmt.Sprintf("team%d", g))
	}
	subs.Wait()
	close(ids)
	close(stop)
	bg.Wait()
	checkPacks(t, "after traffic", e)
	if _, _, err := e.RunAuction(); err != nil && !errors.Is(err, ErrNoOpenOrders) {
		t.Fatal(err)
	}
	checkPacks(t, "after the last auction", e)
	if !e.LedgerBalanced(1e-6) {
		t.Error("ledger unbalanced")
	}
}

// TestSettlementMemos: the memos cut from one string read exactly as the
// formatted ones they replaced.
func TestSettlementMemos(t *testing.T) {
	for _, id := range []int{0, 7, 42, 99, 100, 123456789} {
		own, counter := settlementMemos(id)
		if want := fmt.Sprintf("order %d settlement", id); own != want {
			t.Errorf("own memo %q, want %q", own, want)
		}
		if want := fmt.Sprintf("counterparty for order %d", id); counter != want {
			t.Errorf("counterparty memo %q, want %q", counter, want)
		}
	}
}
