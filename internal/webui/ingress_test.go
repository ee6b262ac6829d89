package webui

import (
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"clustermarket/internal/cluster"
	"clustermarket/internal/federation"
	"clustermarket/internal/market"
)

// badNumbers are form values that strconv.ParseFloat accepts but bid
// ingress must reject: non-finite, non-positive, or not a number at
// all. Booking any of them would either poison auction arithmetic
// (NaN/Inf reach budget reservation and the cover vector) or book an
// order that can never win.
var badNumbers = []string{"NaN", "nan", "+Inf", "-Inf", "Infinity", "0", "-5", "1e999", "abc", ""}

// TestBidSubmitRejectsNonFinite is the regression test for the ingress
// hole where /bid/submit parsed "NaN" and "+Inf" limits (and
// quantities) unguarded and forwarded them into the market layer. Both
// fields must 400 at the door, and nothing may reach the order book.
func TestBidSubmitRejectsNonFinite(t *testing.T) {
	s, ex := newTestServer(t)
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, bad := range badNumbers {
		form := url.Values{
			"team": {"web-team"}, "product": {"batch-compute"},
			"qty": {"1"}, "clusters": {"r2"}, "limit": {"50"},
		}
		form.Set("limit", bad)
		if code, body := postForm(t, ts, "/bid/submit", form); code != http.StatusBadRequest || !strings.Contains(body, "limit") {
			t.Errorf("limit=%q: got %d, want 400 naming the limit", bad, code)
		}
		form.Set("limit", "50")
		form.Set("qty", bad)
		if code, body := postForm(t, ts, "/bid/submit", form); code != http.StatusBadRequest || !strings.Contains(body, "quantity") {
			t.Errorf("qty=%q: got %d, want 400 naming the quantity", bad, code)
		}
		// The preview step guards quantity the same way (via redirect,
		// its established error channel) so NaN cannot price a cover.
		if _, body := postForm(t, ts, "/bid/preview", form); !strings.Contains(body, "quantity") {
			t.Errorf("preview qty=%q not rejected", bad)
		}
	}
	if n := len(ex.OpenOrders()); n != 0 {
		t.Fatalf("rejected submissions booked %d orders", n)
	}
}

// TestFedGlobalBidRejectsNonFinite covers the same hole on the
// federated front end's global bid form, which routes through
// Federation.SubmitProduct.
func TestFedGlobalBidRejectsNonFinite(t *testing.T) {
	fed, ts := fedFixture(t)

	for _, bad := range badNumbers {
		form := url.Values{
			"team": {"search"}, "product": {"batch-compute"},
			"qty": {"1"}, "clusters": {"hot-r1,cold-r1"}, "limit": {"500"},
		}
		form.Set("limit", bad)
		if code, body := postForm(t, ts, "/bid/submit", form); code != http.StatusBadRequest || !strings.Contains(body, "limit") {
			t.Errorf("limit=%q: got %d, want 400 naming the limit", bad, code)
		}
		form.Set("limit", "500")
		form.Set("qty", bad)
		if code, body := postForm(t, ts, "/bid/submit", form); code != http.StatusBadRequest || !strings.Contains(body, "quantity") {
			t.Errorf("qty=%q: got %d, want 400 naming the quantity", bad, code)
		}
	}
	if n := len(fed.OrdersTail(10)); n != 0 {
		t.Fatalf("rejected submissions booked %d federated orders", n)
	}
}

// TestSubmitProductRejectsNonFinite pins the defense-in-depth layer:
// even a caller bypassing the HTTP front end (the Go API, a future RPC
// ingress) must not be able to book a non-finite or non-positive
// quantity or limit. qty <= 0 alone waves NaN through, since every
// comparison with NaN is false.
func TestSubmitProductRejectsNonFinite(t *testing.T) {
	_, ex := newTestServer(t)
	fed, _ := fedFixture(t)

	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct{ qty, limit float64 }{
		{nan, 50}, {1, nan}, {inf, 50}, {1, inf}, {1, -inf},
		{-1, 50}, {0, 50}, {1, 0}, {1, -5},
	}
	for _, c := range cases {
		if _, err := ex.SubmitProduct("web-team", "batch-compute", c.qty, []string{"r2"}, c.limit); err == nil {
			t.Errorf("market.SubmitProduct(qty=%g, limit=%g) accepted", c.qty, c.limit)
		}
		if _, err := fed.SubmitProduct("search", "batch-compute", c.qty, []string{"cold-r1"}, c.limit); err == nil {
			t.Errorf("federation.SubmitProduct(qty=%g, limit=%g) accepted", c.qty, c.limit)
		}
	}
}

// fuzzFedServerOnce builds one shared single-region FedServer for the
// bid-entry fuzzer, mirroring fuzzServerOnce.
var fuzzFedServerOnce = sync.OnceValue(func() *FedServer {
	f := cluster.NewFleet()
	c := cluster.New("fz-r1", nil)
	c.AddMachines(10, cluster.Usage{CPU: 10, RAM: 20, Disk: 5})
	if err := f.AddCluster(c); err != nil {
		panic(err)
	}
	r, err := federation.NewRegion("fz", f, market.Config{InitialBudget: 5000})
	if err != nil {
		panic(err)
	}
	fed, err := federation.NewFederation(r)
	if err != nil {
		panic(err)
	}
	if err := fed.OpenAccount("web-team"); err != nil {
		panic(err)
	}
	return NewFederated(fed)
})

// FuzzBidSubmit hammers both bid-entry front ends with arbitrary qty
// and limit strings. Properties:
//
//  1. no handler panics;
//  2. every response is a deliberate status — 200 for a booked or
//     cleanly-refused bid (error redirects land on 200 pages), 400 for
//     malformed numbers — never a 5xx;
//  3. no order is ever booked with a non-finite or non-positive
//     quantity or limit.
func FuzzBidSubmit(f *testing.F) {
	f.Add("1", "50")
	f.Add("NaN", "50")
	f.Add("1", "NaN")
	f.Add("+Inf", "50")
	f.Add("1", "+Inf")
	f.Add("-Inf", "-Inf")
	f.Add("0", "0")
	f.Add("-3", "1e999")
	f.Add("", "")
	f.Add("1e3", "0x1p-10")
	f.Fuzz(func(t *testing.T, qty, limit string) {
		s := fuzzServerOnce()
		fs := fuzzFedServerOnce()
		form := url.Values{
			"team": {"web-team"}, "product": {"batch-compute"},
			"qty": {qty}, "clusters": {"r2"}, "limit": {limit},
		}
		fedForm := url.Values{
			"team": {"web-team"}, "product": {"batch-compute"},
			"qty": {qty}, "clusters": {"fz-r1"}, "limit": {limit},
		}
		for _, tc := range []struct {
			h    http.Handler
			path string
			form url.Values
		}{
			{s, "/bid/submit", form},
			{fs, "/bid/submit", fedForm},
		} {
			req := httptest.NewRequest("POST", tc.path, strings.NewReader(tc.form.Encode()))
			req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
			rec := httptest.NewRecorder()
			tc.h.ServeHTTP(rec, req)
			switch rec.Code {
			case 200, 303, 400:
			default:
				t.Fatalf("POST %s qty=%q limit=%q -> %d:\n%s", tc.path, qty, limit, rec.Code, rec.Body.String())
			}
		}
	})
}

// paddedForm encodes form followed by a padding field that brings the
// body to exactly size bytes. The bid fields come first, so a handler
// that read past the cap would book a valid order.
func paddedForm(t *testing.T, form url.Values, size int) string {
	t.Helper()
	body := form.Encode() + "&pad="
	if len(body) > size {
		t.Fatalf("form alone is %d bytes, want at most %d", len(body), size)
	}
	return body + strings.Repeat("x", size-len(body))
}

// postRaw serves one POST of an already-encoded form body.
func postRaw(h http.Handler, path, body string) int {
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code
}

// TestBidFormBodyIsBounded: a bid form post one byte over maxFormBytes
// is refused with 413 before any field is read, and the book stays
// empty; a body exactly at the cap is still served.
func TestBidFormBodyIsBounded(t *testing.T) {
	s, ex := newTestServer(t)
	form := url.Values{
		"team": {"web-team"}, "product": {"batch-compute"},
		"qty": {"1"}, "clusters": {"r2"}, "limit": {"50"},
	}
	for _, path := range []string{"/bid/submit", "/bid/preview"} {
		if code := postRaw(s, path, paddedForm(t, form, maxFormBytes+1)); code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s over the cap: got %d, want 413", path, code)
		}
	}
	if n := len(ex.OpenOrders()); n != 0 {
		t.Fatalf("oversized submissions booked %d orders", n)
	}
	if code := postRaw(s, "/bid/submit", paddedForm(t, form, maxFormBytes)); code != http.StatusOK {
		t.Fatalf("POST /bid/submit at the cap: got %d, want 200", code)
	}
	if n := len(ex.OpenOrders()); n != 1 {
		t.Fatalf("at-cap submission booked %d orders, want 1", n)
	}
}

// TestFedGlobalBidFormBodyIsBounded is the same bound on the federated
// global bid form.
func TestFedGlobalBidFormBodyIsBounded(t *testing.T) {
	fed, ts := fedFixture(t)
	form := url.Values{
		"team": {"search"}, "product": {"batch-compute"},
		"qty": {"1"}, "clusters": {"hot-r1,cold-r1"}, "limit": {"500"},
	}
	if code := postRaw(ts.Config.Handler, "/bid/submit", paddedForm(t, form, maxFormBytes+1)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("POST /bid/submit over the cap: got %d, want 413", code)
	}
	if n := len(fed.OrdersTail(10)); n != 0 {
		t.Fatalf("oversized submission booked %d federated orders", n)
	}
}
