package core

import (
	"math"
	"testing"

	"clustermarket/internal/resource"
)

func TestBidClass(t *testing.T) {
	cases := []struct {
		name string
		bid  Bid
		want Class
	}{
		{"buyer", Bid{Bundles: []resource.Vector{{1, 0}, {0, 2}}}, PureBuyer},
		{"seller", Bid{Bundles: []resource.Vector{{-1, 0}}}, PureSeller},
		{"mixed bundle", Bid{Bundles: []resource.Vector{{1, -1}}}, Trader},
		{"mixed across bundles", Bid{Bundles: []resource.Vector{{1, 0}, {-1, 0}}}, Trader},
		{"zero bundle counts as buy side", Bid{Bundles: []resource.Vector{{0, 0}}}, PureBuyer},
	}
	for _, c := range cases {
		if got := c.bid.Class(); got != c.want {
			t.Errorf("%s: Class = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestClassString(t *testing.T) {
	if PureBuyer.String() != "buyer" || PureSeller.String() != "seller" || Trader.String() != "trader" {
		t.Error("Class.String values wrong")
	}
}

func TestBidValidate(t *testing.T) {
	good := Bid{User: "u", Bundles: []resource.Vector{{1, 0}}, Limit: 5}
	if err := good.Validate(2); err != nil {
		t.Errorf("valid bid rejected: %v", err)
	}
	cases := []struct {
		name string
		bid  Bid
	}{
		{"empty user", Bid{Bundles: []resource.Vector{{1}}, Limit: 1}},
		{"no bundles", Bid{User: "u", Limit: 1}},
		{"nan limit", Bid{User: "u", Bundles: []resource.Vector{{1}}, Limit: math.NaN()}},
		{"inf limit", Bid{User: "u", Bundles: []resource.Vector{{1}}, Limit: math.Inf(1)}},
		{"wrong length", Bid{User: "u", Bundles: []resource.Vector{{1, 2}}, Limit: 1}},
		{"nan component", Bid{User: "u", Bundles: []resource.Vector{{math.NaN()}}, Limit: 1}},
		{"zero bundle", Bid{User: "u", Bundles: []resource.Vector{{0}}, Limit: 1}},
		{"seller with positive limit", Bid{User: "u", Bundles: []resource.Vector{{-1}}, Limit: 5}},
	}
	for _, c := range cases {
		if err := c.bid.Validate(1); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// mustProxy wraps a bid the test knows to be valid.
func mustProxy(t *testing.T, b *Bid) *Proxy {
	t.Helper()
	px, err := NewProxy(b)
	if err != nil {
		t.Fatal(err)
	}
	return px
}

func TestProxyDemandBuyer(t *testing.T) {
	// Buyer indifferent between pools 0 and 1, limit 10.
	b := &Bid{User: "u", Limit: 10, Bundles: []resource.Vector{{5, 0}, {0, 5}}}
	px := mustProxy(t, b)

	// Pool 1 cheaper: chooses bundle 1.
	d := px.Demand(resource.Vector{2, 1})
	if d == nil || d[1] != 5 {
		t.Fatalf("demand = %v", d)
	}
	if px.ChosenBundle() != 1 {
		t.Errorf("ChosenBundle = %d", px.ChosenBundle())
	}

	// Equal prices: ties break to the lowest index.
	d = px.Demand(resource.Vector{1, 1})
	if px.ChosenBundle() != 0 {
		t.Errorf("tie ChosenBundle = %d", px.ChosenBundle())
	}
	if d == nil || d[0] != 5 {
		t.Fatalf("tie demand = %v", d)
	}

	// Priced out: cheapest bundle costs 5·3 = 15 > 10.
	d = px.Demand(resource.Vector{3, 3})
	if d != nil {
		t.Fatalf("priced-out demand = %v", d)
	}
	if px.ChosenBundle() != -1 {
		t.Errorf("priced-out ChosenBundle = %d", px.ChosenBundle())
	}
}

func TestProxyDemandSeller(t *testing.T) {
	// Seller offers 10 units, requires at least 5 in revenue
	// (Limit = −5). Revenue = −(qᵀp) = 10·p.
	b := &Bid{User: "s", Limit: -5, Bundles: []resource.Vector{{-10}}}
	px := mustProxy(t, b)

	// p = 1: revenue 10 ≥ 5, so the seller is in.
	if d := px.Demand(resource.Vector{1}); d == nil {
		t.Fatal("seller dropped despite sufficient revenue")
	}
	// p = 0.4: revenue 4 < 5, seller stays out.
	if d := px.Demand(resource.Vector{0.4}); d != nil {
		t.Fatalf("seller active below reserve revenue: %v", d)
	}
}

func TestProxySellerPicksHighestRevenue(t *testing.T) {
	// Seller indifferent between offering in pool 0 or pool 1; argmin of
	// qᵀp maximizes revenue.
	b := &Bid{User: "s", Limit: -1, Bundles: []resource.Vector{{-10, 0}, {0, -10}}}
	px := mustProxy(t, b)
	d := px.Demand(resource.Vector{2, 3})
	if d == nil || d[1] != -10 {
		t.Fatalf("seller chose %v, want offer in the pricier pool 1", d)
	}
}

func TestCheapestCost(t *testing.T) {
	b := &Bid{User: "u", Limit: 100, Bundles: []resource.Vector{{5, 0}, {0, 4}}}
	if got := b.CheapestCost(resource.Vector{2, 3}); got != 10 {
		t.Errorf("CheapestCost = %v", got)
	}
	if got := b.CheapestCost(resource.Vector{3, 2}); got != 8 {
		t.Errorf("CheapestCost = %v", got)
	}
}

func TestPremium(t *testing.T) {
	if got := Premium(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("Premium = %v", got)
	}
	// Sellers: limit −50, received 60 (payment −60): |−50+60|/60 = 1/6.
	if got := Premium(-50, -60); math.Abs(got-1.0/6) > 1e-12 {
		t.Errorf("seller Premium = %v", got)
	}
	if got := Premium(5, 0); got != 0 {
		t.Errorf("zero payment Premium = %v", got)
	}
}

// TestValidateMatchesNewAuctionErrors pins the one validation pass:
// Bid.Validate and NewAuction return the same error, word for word, and
// the words are the ones the separate per-check scans produced, first
// failure first.
func TestValidateMatchesNewAuctionErrors(t *testing.T) {
	reg := resource.NewRegistry(
		resource.Pool{Cluster: "c0", Dim: resource.CPU},
		resource.Pool{Cluster: "c1", Dim: resource.CPU},
	)
	negZero := math.Copysign(0, -1)
	cases := []struct {
		name string
		bid  Bid
		want string
	}{
		{"nan component",
			Bid{User: "u", Bundles: []resource.Vector{{1, 0}, {0, math.NaN()}}, Limit: 1},
			`core: bid "u" bundle 1: resource: component 1 is NaN`},
		{"+inf component",
			Bid{User: "u", Bundles: []resource.Vector{{math.Inf(1), 0}}, Limit: 1},
			`core: bid "u" bundle 0: resource: component 0 is infinite`},
		{"-inf component",
			Bid{User: "u", Bundles: []resource.Vector{{1, math.Inf(-1)}}, Limit: 1},
			`core: bid "u" bundle 0: resource: component 1 is infinite`},
		{"first non-finite component wins",
			Bid{User: "u", Bundles: []resource.Vector{{math.Inf(1), math.NaN()}}, Limit: 1},
			`core: bid "u" bundle 0: resource: component 0 is infinite`},
		{"empty bundle",
			Bid{User: "u", Bundles: []resource.Vector{{1, 0}, {0, 0}}, Limit: 1},
			`core: bid "u" bundle 1 is empty`},
		{"bundle of only -0.0",
			Bid{User: "u", Bundles: []resource.Vector{{negZero, negZero}}, Limit: 1},
			`core: bid "u" bundle 0 is empty`},
		{"empty bundle before a later NaN",
			Bid{User: "u", Bundles: []resource.Vector{{0, 0}, {math.NaN(), 0}}, Limit: 1},
			`core: bid "u" bundle 0 is empty`},
		{"wrong length",
			Bid{User: "u", Bundles: []resource.Vector{{1, 0}, {1}}, Limit: 1},
			`core: bid "u" bundle 1 has 1 components, want 2`},
		{"wrong length before a later NaN",
			Bid{User: "u", Bundles: []resource.Vector{{1, 0, 0}, {math.NaN(), 0}}, Limit: 1},
			`core: bid "u" bundle 0 has 3 components, want 2`},
		{"mismatched bundle limits",
			Bid{User: "u", Bundles: []resource.Vector{{1, 0}, {0, 1}}, BundleLimits: []float64{1}},
			`core: bid "u" has 1 bundle limits for 2 bundles`},
		{"pure seller with positive limit",
			Bid{User: "u", Bundles: []resource.Vector{{-1, 0}, {0, -2}}, Limit: 5},
			`core: pure seller "u" has positive limit 5 (minimum receipt is encoded as a negative limit)`},
		{"pure seller with one positive bundle limit",
			Bid{User: "u", Bundles: []resource.Vector{{-1, 0}, {0, -2}}, BundleLimits: []float64{-1, 3}},
			`core: pure seller "u" has positive limit 3 (minimum receipt is encoded as a negative limit)`},
	}
	start := make(resource.Vector, reg.Len())
	for _, c := range cases {
		errText := func(err error) string {
			if err == nil {
				return "<nil>"
			}
			return err.Error()
		}
		if got := errText(c.bid.Validate(reg.Len())); got != c.want {
			t.Errorf("%s: Validate = %s, want %s", c.name, got, c.want)
		}
		_, err := NewAuction(reg, []*Bid{&c.bid}, Config{Start: start})
		if got := errText(err); got != c.want {
			t.Errorf("%s: NewAuction = %s, want %s", c.name, got, c.want)
		}
		// NewProxy measures lengths against the first bundle, so only
		// its refusal is common to every case.
		if _, err := NewProxy(&c.bid); err == nil {
			t.Errorf("%s: NewProxy accepted", c.name)
		}
	}
}
