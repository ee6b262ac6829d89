package market_test

// Settlement as one journal batch: a binding auction journals its
// per-order events and the auction record with one write and one
// fsync, publishes them in the same order it applies them, and a crash
// that tears the batch recovers to a durable prefix of whole frames
// with no auction record.

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"clustermarket/internal/invariant"
	"clustermarket/internal/journal"
	"clustermarket/internal/market"
	"clustermarket/internal/telemetry"
)

// submitBook opens three accounts and submits k orders with distinct
// limits, so the clock has both winners and losers to settle. scale
// multiplies every quantity and limit.
func submitBook(t *testing.T, e *market.Exchange, k int, scale float64) {
	t.Helper()
	teams := []string{"ads", "maps", "search"}
	for _, team := range teams {
		if err := e.OpenAccount(team); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < k; i++ {
		clusters := []string{"alpha"}
		if i%2 == 1 {
			clusters = []string{"alpha", "beta"}
		}
		if _, err := e.SubmitProduct(teams[i%len(teams)], "batch-compute", scale*(1+float64(i%3)), clusters, scale*(300+100*float64(i))); err != nil {
			t.Fatal(err)
		}
	}
}

// drainKinds returns the market event kinds buffered on sub, in order.
func drainKinds(sub *telemetry.Subscription) []string {
	var kinds []string
	for {
		select {
		case ev := <-sub.C:
			if ev.Source == market.EventSource {
				kinds = append(kinds, ev.Kind)
			}
		default:
			return kinds
		}
	}
}

func TestAuctionJournalsOneBatch(t *testing.T) {
	for _, tc := range []struct {
		name      string
		scale     float64
		maxRounds int
		perOrder  string
	}{
		{"converged", 1, 4000, market.EvOrderSettled},
		// One round cannot clear a book demanding several times the
		// fleet: every order records an attempt instead of settling.
		{"no-convergence", 30, 1, market.EvOrderAttempted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const k = 5
			j, _, err := journal.Open(t.TempDir(), journal.Options{FsyncEvery: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			fire := telemetry.NewFirehose()
			sub := fire.Subscribe(256)
			defer sub.Close()
			cfg := marketCfg(j, -1)
			cfg.MaxRounds = tc.maxRounds
			cfg.InitialBudget = 1e9
			cfg.Telemetry = fire
			ex, err := market.NewExchange(recoverFleet(t), cfg)
			if err != nil {
				t.Fatal(err)
			}
			submitBook(t, ex, k, tc.scale)
			drainKinds(sub)

			before := j.Metrics()
			rec, res, _ := ex.RunAuction()
			if rec == nil || res == nil {
				t.Fatal("auction produced no record")
			}
			if res.Converged != (tc.perOrder == market.EvOrderSettled) {
				t.Fatalf("converged = %v; the book no longer exercises the %s branch", res.Converged, tc.name)
			}
			after := j.Metrics()
			if got := after.Fsyncs - before.Fsyncs; got != 1 {
				t.Errorf("auction fsyncs = %d, want 1", got)
			}
			if got := after.Appends - before.Appends; got != k+1 {
				t.Errorf("auction appends = %d, want %d", got, k+1)
			}

			kinds := drainKinds(sub)
			if len(kinds) != k+1 {
				t.Fatalf("published %v, want %d per-order events and the record", kinds, k)
			}
			for i, kind := range kinds[:k] {
				if kind != tc.perOrder {
					t.Errorf("event %d = %s, want %s", i, kind, tc.perOrder)
				}
			}
			if kinds[k] != market.EvAuctionCleared {
				t.Errorf("last event = %s, want %s", kinds[k], market.EvAuctionCleared)
			}
		})
	}
}

// walFrames returns the byte offset and payload length of every frame
// in a WAL file image.
func walFrames(data []byte) (offs []int64, lens []int64) {
	const header = 14
	for off := int64(header); off < int64(len(data)); {
		n := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		offs = append(offs, off)
		lens = append(lens, n)
		off += 8 + n
	}
	return offs, lens
}

// TestTornSettlementBatchRecovers cuts the WAL inside an auction's
// settlement batch — at a frame boundary after k settled frames, and
// mid-way through frame k — and requires recovery to show exactly k
// settled orders, no auction record, a clean invariant kernel, and a
// next clock that reuses the auction number.
func TestTornSettlementBatchRecovers(t *testing.T) {
	const orders = 4
	src := t.TempDir()
	j, _, err := journal.Open(src, journal.Options{FsyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := market.NewExchange(recoverFleet(t), marketCfg(j, -1))
	if err != nil {
		t.Fatal(err)
	}
	submitBook(t, ex, orders, 1)
	preFrames := int(j.Seq())
	if _, _, err := ex.RunAuction(); err != nil {
		t.Fatal(err)
	}
	j.Crash()
	wal, err := os.ReadFile(filepath.Join(src, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	offs, lens := walFrames(wal)
	if got := len(offs) - preFrames; got != orders+1 {
		t.Fatalf("auction wrote %d frames, want %d", got, orders+1)
	}

	for _, k := range []int{0, 2, orders} {
		frame := preFrames + k
		for _, cut := range []struct {
			name string
			at   int64
		}{
			{"boundary", offs[frame]},
			{"mid-frame", offs[frame] + 8 + lens[frame]/2},
		} {
			t.Run(fmt.Sprintf("%s/k=%d", cut.name, k), func(t *testing.T) {
				dir := t.TempDir()
				if err := os.WriteFile(filepath.Join(dir, "wal"), wal[:cut.at], 0o644); err != nil {
					t.Fatal(err)
				}
				j2, rec, err := journal.Open(dir, journal.Options{FsyncEvery: 1})
				if err != nil {
					t.Fatal(err)
				}
				defer j2.Close()
				if len(rec.Records) != frame {
					t.Fatalf("recovered %d records, want %d", len(rec.Records), frame)
				}
				recovered, err := market.Recover(recoverFleet(t), marketCfg(j2, -1), rec)
				if err != nil {
					t.Fatalf("Recover: %v", err)
				}
				if vs := invariant.CheckExchange(recovered); len(vs) > 0 {
					t.Fatalf("recovered exchange violates invariants: %v", vs)
				}
				settled := 0
				for _, o := range recovered.Orders() {
					if o.Status != market.Open {
						settled++
					}
				}
				if settled != k {
					t.Errorf("recovered %d settled orders, want %d", settled, k)
				}
				if n := recovered.AuctionCount(); n != 0 {
					t.Fatalf("recovered %d auction records, want 0", n)
				}

				// The next clock reuses the number the torn batch never
				// published.
				if _, err := recovered.SubmitProduct("maps", "batch-compute", 1, []string{"beta"}, 450); err != nil {
					t.Fatal(err)
				}
				next, _, err := recovered.RunAuction()
				if err != nil {
					t.Fatalf("auction after recovery: %v", err)
				}
				if next.Number != 1 {
					t.Errorf("next auction number = %d, want 1", next.Number)
				}
				if vs := invariant.CheckExchange(recovered); len(vs) > 0 {
					t.Fatalf("post-recovery auction violates invariants: %v", vs)
				}
			})
		}
	}
}
