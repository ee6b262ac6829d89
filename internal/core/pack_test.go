package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"clustermarket/internal/resource"
)

// packedCopies returns shallow copies of bids, each packed against
// registry size r with one shared Packer, as admission packs them.
func packedCopies(t *testing.T, bids []*Bid, r int) []*Bid {
	t.Helper()
	var pk Packer
	out := make([]*Bid, len(bids))
	for i, b := range bids {
		c := *b
		if err := c.Pack(r, &pk); err != nil {
			t.Fatalf("bid %d: Pack: %v", i, err)
		}
		out[i] = &c
	}
	return out
}

// unpackedCopies returns shallow copies of bids without memos.
func unpackedCopies(bids []*Bid) []*Bid {
	out := make([]*Bid, len(bids))
	for i, b := range bids {
		c := *b
		c.Unpack()
		out[i] = &c
	}
	return out
}

// mustUseMemos requires every proxy of a, built over packed bids, to
// read its bid's memo rather than a fresh packing.
func mustUseMemos(t *testing.T, tag string, a *Auction) {
	t.Helper()
	for i, px := range a.proxies {
		m := a.bids[i].pack
		if m == nil || &px.sparse[0] != &m.sparse[0] || px.class != m.class {
			t.Fatalf("%s: proxy %d does not reuse its bid's memo", tag, i)
		}
	}
}

// TestPackedMatchesUnpackedDifferential: over both 120-seed differential
// generators, on every engine and partition mode, an auction over packed
// copies of the bids returns exactly the Result (and error) of one over
// unpacked copies, and its proxies really read the memos.
func TestPackedMatchesUnpackedDifferential(t *testing.T) {
	check := func(tag string, reg *resource.Registry, bids []*Bid, cfg Config) {
		t.Helper()
		packed, plain := packedCopies(t, bids, reg.Len()), unpackedCopies(bids)
		for _, engine := range []Engine{EngineDense, EngineIncremental} {
			for _, mode := range []PartitionMode{PartitionOff, PartitionAuto} {
				c := cfg
				c.Engine, c.Partition = engine, mode
				tag := fmt.Sprintf("%s %v/partition=%v", tag, engine, mode)
				ap, err := NewAuction(reg, packed, c)
				if err != nil {
					t.Fatalf("%s: packed: %v", tag, err)
				}
				mustUseMemos(t, tag, ap)
				au, err := NewAuction(reg, plain, c)
				if err != nil {
					t.Fatalf("%s: unpacked: %v", tag, err)
				}
				got, gotErr := ap.Run()
				want, wantErr := au.Run()
				if (gotErr == nil) != (wantErr == nil) || gotErr != nil && !errors.Is(gotErr, wantErr) && gotErr.Error() != wantErr.Error() {
					t.Fatalf("%s: errors differ: packed=%v unpacked=%v", tag, gotErr, wantErr)
				}
				if (got == nil) != (want == nil) {
					t.Fatalf("%s: nil result mismatch: packed=%v unpacked=%v", tag, gotErr, wantErr)
				}
				if got != nil {
					mustEqualResults(t, tag, want, got)
				}
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
		bids := randomMixedMarket(rng, reg)
		start := make(resource.Vector, reg.Len())
		for i := range start {
			start[i] = rng.Float64() * 2
		}
		check(fmt.Sprintf("mixed seed %d", seed), reg, bids, Config{
			Start:         start,
			Policy:        Capped{Alpha: 0.01 + rng.Float64()*0.1, Delta: 0.2 + rng.Float64(), MinStep: 0.005},
			Epsilon:       float64(rng.Intn(2)) * 0.01,
			MaxRounds:     300,
			Parallel:      seed%3 == 0,
			RecordHistory: true,
		})

		rng = rand.New(rand.NewSource(9000 + seed))
		reg, bids = randomRegionalMarket(rng, rng.Intn(5)+2)
		start = make(resource.Vector, reg.Len())
		for i := range start {
			start[i] = rng.Float64() * 2
		}
		check(fmt.Sprintf("regional seed %d", seed), reg, bids, Config{
			Start:         start,
			Policy:        randomPartitionPolicy(rng, reg.Len()),
			Epsilon:       float64(rng.Intn(2)) * 0.01,
			MaxRounds:     300,
			Parallel:      seed%3 == 0,
			RecordHistory: true,
		})
	}
}

// TestPackMemoGuard: a memo is reused only for the registry size and the
// Bundles slice it was made for, and the header and the pure-seller
// limit rule are re-checked on every use, so a bid changed after packing
// gets exactly the errors and the auction an unpacked bid would.
func TestPackMemoGuard(t *testing.T) {
	reg := resource.NewRegistry(
		resource.Pool{Cluster: "c0", Dim: resource.CPU},
		resource.Pool{Cluster: "c1", Dim: resource.CPU},
	)
	start := make(resource.Vector, reg.Len())
	packedSeller := func() *Bid {
		b := &Bid{User: "s", Bundles: []resource.Vector{{-1, 0}, {0, -2}}, Limit: -1}
		if err := b.Pack(reg.Len(), &Packer{}); err != nil {
			t.Fatal(err)
		}
		return b
	}
	errText := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	for _, c := range []struct {
		name   string
		mutate func(b *Bid)
		want   string
	}{
		{"user emptied", func(b *Bid) { b.User = "" }, `core: bid has empty user`},
		{"limit turned positive", func(b *Bid) { b.Limit = 4 },
			`core: pure seller "s" has positive limit 4 (minimum receipt is encoded as a negative limit)`},
		{"bundle limits mismatched", func(b *Bid) { b.BundleLimits = []float64{-1} },
			`core: bid "s" has 1 bundle limits for 2 bundles`},
		{"bundle limit turned positive", func(b *Bid) { b.BundleLimits = []float64{-1, 2} },
			`core: pure seller "s" has positive limit 2 (minimum receipt is encoded as a negative limit)`},
		{"bundles replaced by an empty one", func(b *Bid) { b.Bundles = []resource.Vector{{-1, 0}, {0, 0}} },
			`core: bid "s" bundle 1 is empty`},
		{"bundles replaced by a buyer's", func(b *Bid) { b.Bundles = []resource.Vector{{1, 0}}; b.Limit = 3 },
			`<nil>`},
	} {
		b := packedSeller()
		c.mutate(b)
		if got := errText(b.Validate(reg.Len())); got != c.want {
			t.Errorf("%s: Validate = %s, want %s", c.name, got, c.want)
		}
		if _, err := NewAuction(reg, []*Bid{b}, Config{Start: start}); errText(err) != c.want {
			t.Errorf("%s: NewAuction = %s, want %s", c.name, errText(err), c.want)
		}
	}

	// A replaced Bundles slice is scanned afresh, not read from the memo.
	b := packedSeller()
	b.Bundles = []resource.Vector{{3, 0}}
	b.Limit = 10
	a, err := NewAuction(reg, []*Bid{b}, Config{Start: start})
	if err != nil {
		t.Fatal(err)
	}
	if px := a.proxies[0]; px.class != PureBuyer || len(px.sparse) != 1 || px.sparse[0].val[0] != 3 {
		t.Errorf("replaced bundles read the stale memo: class %v sparse %+v", px.class, px.sparse)
	}
	// So is a truncated one, though it starts at the packed address.
	b = &Bid{User: "t", Bundles: []resource.Vector{{1, 0}, {0, -2}}, Limit: 5}
	if err := b.Pack(reg.Len(), &Packer{}); err != nil {
		t.Fatal(err)
	}
	b.Bundles = b.Bundles[:1]
	if a, err = NewAuction(reg, []*Bid{b}, Config{Start: start}); err != nil {
		t.Fatal(err)
	}
	if px := a.proxies[0]; px.class != PureBuyer || len(px.sparse) != 1 {
		t.Errorf("truncated bundles read the stale memo: class %v, %d sparse bundles", px.class, len(px.sparse))
	}
	// Another registry size never reuses the memo.
	b = packedSeller()
	if err := b.Validate(3); errText(err) != `core: bid "s" bundle 0 has 2 components, want 3` {
		t.Errorf("registry size 3: %v", err)
	}
	// Unpack drops the memo; a failed Pack leaves none.
	b.Unpack()
	if b.pack != nil {
		t.Error("Unpack kept the memo")
	}
	b = packedSeller()
	b.Bundles = []resource.Vector{{-1, 1}, {0, 0}}
	if err := b.Pack(reg.Len(), &Packer{}); err == nil || b.pack != nil {
		t.Errorf("failed Pack: err %v, memo %v", err, b.pack)
	}
}
