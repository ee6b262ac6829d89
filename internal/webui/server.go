// Package webui serves the trading platform front end from Section V.A:
// the market summary page (Figure 3), the two-step bid entry flow
// (Figure 4), and preliminary prices during the bid window (Figure 5),
// implemented entirely with net/http and html/template.
package webui

import (
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"clustermarket/internal/cluster"
	"clustermarket/internal/market"
	"clustermarket/internal/resource"
	"clustermarket/internal/telemetry"
)

// Server exposes one Exchange over HTTP. The Exchange is safe for
// concurrent use, so handlers call it directly — no server-wide lock
// serializes requests, and the epoch auction loop can settle while
// traffic is in flight.
type Server struct {
	ex *market.Exchange
	// prefix is prepended to every generated link and redirect, so the
	// same server can be mounted at a sub-path (a region drill-down under
	// a federation front end) behind http.StripPrefix.
	prefix string

	mux       *http.ServeMux
	summary   *template.Template
	bidStep1  *template.Template
	bidStep2  *template.Template
	bidDone   *template.Template
	orders    *template.Template
	teamsPage *template.Template

	// The preliminary-prices endpoint runs a full clock simulation per
	// call; this single-flight cache keeps N polling browser tabs from
	// running N simulations over the same book.
	pricesMu  sync.Mutex
	pricesAt  time.Time
	pricesVal *pricesView

	// health backs /healthz; nil serves a bare always-healthy snapshot.
	health *telemetry.Health
}

// pricesView is the wire form of /api/prices.json: the preliminary
// settlement prices plus whether the simulated clock actually cleared.
// A non-clearing clock's prices are still shown during the bid window
// (Section V.A) — marked by Note — instead of failing the request.
type pricesView struct {
	Converged bool               `json:"converged"`
	Note      string             `json:"note,omitempty"`
	Prices    map[string]float64 `json:"prices"`
}

// noteNotConverged marks prices from a clock simulation that hit its
// round limit; noteReserve marks the reserve-price fallback used when
// the book is empty.
const (
	noteNotConverged = "preliminary, not converged"
	noteReserve      = "reserve prices (no open orders)"
)

// pricesTTL bounds how stale the cached preliminary prices may be — the
// "periodic intervals during the bid collection phase" of Section V.A.
const pricesTTL = time.Second

// New builds a Server around the exchange, serving from the root path.
func New(ex *market.Exchange) *Server { return NewWithPrefix(ex, "") }

// NewWithPrefix builds a Server whose generated links and redirects are
// rooted at prefix (e.g. "/region/eu"). Mount it behind
// http.StripPrefix(prefix, s) so incoming paths still match the bare
// routes.
func NewWithPrefix(ex *market.Exchange, prefix string) *Server {
	funcs := template.FuncMap{
		"pct": func(x float64) float64 { return 100 * x },
	}
	s := &Server{
		ex:        ex,
		prefix:    prefix,
		mux:       http.NewServeMux(),
		summary:   template.Must(template.New("summary").Funcs(funcs).Parse(summaryTmpl)),
		bidStep1:  template.Must(template.New("bid1").Parse(bidStep1Tmpl)),
		bidStep2:  template.Must(template.New("bid2").Parse(bidStep2Tmpl)),
		bidDone:   template.Must(template.New("bidDone").Parse(bidDoneTmpl)),
		orders:    template.Must(template.New("orders").Parse(ordersTmpl)),
		teamsPage: template.Must(template.New("teams").Parse(teamsTmpl)),
	}
	s.mux.HandleFunc("/", s.handleSummary)
	s.mux.HandleFunc("/bid", s.handleBidStep1)
	s.mux.HandleFunc("/bid/preview", s.handleBidPreview)
	s.mux.HandleFunc("/bid/submit", s.handleBidSubmit)
	s.mux.HandleFunc("/orders", s.handleOrders)
	s.mux.HandleFunc("/teams", s.handleTeams)
	s.mux.HandleFunc("/auction/run", s.handleRunAuction)
	s.mux.HandleFunc("/api/summary.json", s.handleSummaryJSON)
	s.mux.HandleFunc("/api/prices.json", s.handlePricesJSON)
	s.mux.HandleFunc("/api/history.json", s.handleHistoryJSON)
	s.mux.HandleFunc("/api/auctions.json", s.handleAuctionsJSON)
	s.mux.HandleFunc("/api/orders.json", s.handleOrdersJSON)
	s.mux.HandleFunc("/api/events", s.handleEvents)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// Poll endpoints are bounded by default: browser tabs re-fetch them on a
// timer, and cloning an ever-growing book or history per poll turns a
// long-lived market into a quadratic copy loop. ?limit=N overrides
// (capped at maxPollLimit); the unbounded dumps stay available through
// the Exchange API for tests and batch consumers.
const (
	defaultOrdersLimit   = 100
	defaultAuctionsLimit = 200
	maxPollLimit         = 10000
)

// pollLimit parses the request's limit parameter, falling back to def
// and clamping to [1, maxPollLimit]. ok is false on a malformed value.
func pollLimit(r *http.Request, def int) (limit int, ok bool) {
	raw := r.URL.Query().Get("limit")
	if raw == "" {
		return def, true
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 1 {
		return 0, false
	}
	if n > maxPollLimit {
		n = maxPollLimit
	}
	return n, true
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// summaryRow augments a market.ClusterSummary with presentation fields.
type summaryRow struct {
	market.ClusterSummary
	Class string
	Spark string
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	rows, err := s.ex.Summary()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	view := struct {
		Prefix     string
		Auctions   int
		OpenOrders int
		Rows       []summaryRow
	}{
		Prefix:     s.prefix,
		Auctions:   s.ex.AuctionCount(),
		OpenOrders: s.ex.OpenOrderCount(),
	}
	for _, row := range rows {
		sr := summaryRow{ClusterSummary: row}
		switch {
		case row.Utilization.CPU >= 0.75:
			sr.Class = "hot"
		case row.Utilization.CPU <= 0.35:
			sr.Class = "cold"
		}
		hist := s.ex.PriceHistoryTail(resource.Pool{Cluster: row.Cluster, Dim: resource.CPU}, sparklineWindow)
		sr.Spark = sparkline(hist)
		view.Rows = append(view.Rows, sr)
	}
	render(w, s.summary, view)
}

// sparklineWindow bounds the price points behind each summary-page
// sparkline: the glyph row is only this wide anyway, and an unbounded
// PriceHistory walk would make the landing page O(total auctions) per
// poll in a long-lived market.
const sparklineWindow = 48

// sparkline renders values as unicode block characters.
func sparkline(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	var sb strings.Builder
	for _, x := range xs {
		i := 0
		if hi > lo {
			i = int((x - lo) / (hi - lo) * float64(len(blocks)-1))
		}
		sb.WriteRune(blocks[i])
	}
	return sb.String()
}

func (s *Server) handleBidStep1(w http.ResponseWriter, r *http.Request) {
	view := struct {
		Prefix   string
		Error    string
		Team     string
		Products []string
		Clusters string
	}{
		Prefix:   s.prefix,
		Error:    r.URL.Query().Get("err"),
		Products: s.ex.Catalog().Names(),
		Clusters: strings.Join(s.ex.Fleet().ClusterNames(), ","),
	}
	render(w, s.bidStep1, view)
}

// bidOption is one cluster alternative on the step-2 page.
type bidOption struct {
	Cluster string
	Cover   cluster.Usage
	Cost    float64
}

func (s *Server) handleBidPreview(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if !parseForm(w, r) {
		return
	}

	team := strings.TrimSpace(r.FormValue("team"))
	productName := r.FormValue("product")
	qty, err := strconv.ParseFloat(r.FormValue("qty"), 64)
	if err != nil || !finitePositive(qty) {
		s.redirectErr(w, r, "quantity must be a positive number")
		return
	}
	clusters := splitCSV(r.FormValue("clusters"))
	if team == "" || len(clusters) == 0 {
		s.redirectErr(w, r, "team and clusters are required")
		return
	}
	product, err := s.ex.Catalog().Lookup(productName)
	if err != nil {
		s.redirectErr(w, r, err.Error())
		return
	}
	prices, err := s.currentPrices()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	cover := product.Cover(qty)
	reg := s.ex.Registry()
	var options []bidOption
	suggested := 0.0
	for _, cl := range clusters {
		cost := 0.0
		found := false
		for _, d := range resource.StandardDimensions {
			if i, ok := reg.Index(resource.Pool{Cluster: cl, Dim: d}); ok {
				cost += cover.Get(d) * prices[i]
				found = true
			}
		}
		if !found {
			s.redirectErr(w, r, fmt.Sprintf("unknown cluster %q", cl))
			return
		}
		options = append(options, bidOption{Cluster: cl, Cover: cover, Cost: cost})
		if suggested == 0 || cost < suggested {
			suggested = cost
		}
	}
	view := struct {
		Prefix              string
		Team, Product, Unit string
		Qty                 float64
		Options             []bidOption
		ClustersCSV         string
		SuggestedLimit      float64
	}{
		Prefix: s.prefix,
		Team:   team, Product: productName, Unit: product.Unit,
		Qty: qty, Options: options,
		ClustersCSV:    strings.Join(clusters, ","),
		SuggestedLimit: suggested * 1.1,
	}
	render(w, s.bidStep2, view)
}

func (s *Server) handleBidSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if !parseForm(w, r) {
		return
	}

	team := strings.TrimSpace(r.FormValue("team"))
	qty, err := strconv.ParseFloat(r.FormValue("qty"), 64)
	if err != nil || !finitePositive(qty) {
		http.Error(w, "quantity must be a positive, finite number", http.StatusBadRequest)
		return
	}
	limit, err := strconv.ParseFloat(r.FormValue("limit"), 64)
	if err != nil || !finitePositive(limit) {
		http.Error(w, "limit must be a positive, finite number", http.StatusBadRequest)
		return
	}
	order, err := s.ex.SubmitProduct(team, r.FormValue("product"), qty, splitCSV(r.FormValue("clusters")), limit)
	if err != nil {
		s.redirectErr(w, r, err.Error())
		return
	}
	view := struct {
		Prefix string
		ID     int
		Team   string
		Limit  float64
	}{Prefix: s.prefix, ID: order.ID, Team: team, Limit: limit}
	render(w, s.bidDone, view)
}

func (s *Server) handleOrders(w http.ResponseWriter, r *http.Request) {
	limit, ok := pollLimit(r, defaultOrdersLimit)
	if !ok {
		http.Error(w, "limit must be a positive integer", http.StatusBadRequest)
		return
	}
	view := struct {
		Prefix string
		Orders []*market.Order
	}{Prefix: s.prefix, Orders: s.ex.OrdersTail(limit)}
	render(w, s.orders, view)
}

func (s *Server) handleTeams(w http.ResponseWriter, r *http.Request) {
	type teamRow struct {
		Name    string
		Balance float64
	}
	var view struct {
		Prefix string
		Teams  []teamRow
	}
	view.Prefix = s.prefix
	for _, t := range s.ex.Teams() {
		bal, err := s.ex.Balance(t)
		if err != nil {
			continue
		}
		view.Teams = append(view.Teams, teamRow{Name: t, Balance: bal})
	}
	render(w, s.teamsPage, view)
}

func (s *Server) handleRunAuction(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	_, _, err := s.ex.RunAuction()
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	http.Redirect(w, r, s.prefix+"/", http.StatusSeeOther)
}

func (s *Server) handleSummaryJSON(w http.ResponseWriter, r *http.Request) {
	rows, err := s.ex.Summary()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, rows)
}

// handlePricesJSON returns the preliminary settlement prices over the
// open orders — the Figure 5 feedback loop during the bid window. A
// non-clearing clock's final prices are still returned, marked
// "preliminary, not converged"; with no open orders it falls back to
// reserve prices. Results are cached for pricesTTL and computed under a
// single-flight lock: concurrent pollers share one clock simulation
// instead of each running their own.
func (s *Server) handlePricesJSON(w http.ResponseWriter, r *http.Request) {
	s.pricesMu.Lock()
	if s.pricesVal != nil && time.Since(s.pricesAt) < pricesTTL {
		out := s.pricesVal
		s.pricesMu.Unlock()
		writeJSON(w, out)
		return
	}
	view := &pricesView{}
	prices, converged, err := s.ex.PreliminaryPrices()
	switch {
	case prices != nil:
		// The clock ran; non-convergence (err != nil here) is reported in
		// the payload rather than as a failure — Section V.A's bid window
		// is exactly where in-progress prices should still be shown.
		view.Converged = converged
		if !converged {
			view.Note = noteNotConverged
		}
	case errors.Is(err, market.ErrNoOpenOrders):
		// Empty book: reserve prices are the honest answer.
		prices, err = s.ex.ReservePrices()
		if err != nil {
			s.pricesMu.Unlock()
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		view.Note = noteReserve
	default:
		// A real failure (broken policy, reserve pricer error) must not
		// be dressed up as an empty book.
		s.pricesMu.Unlock()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	reg := s.ex.Registry()
	view.Prices = make(map[string]float64, reg.Len())
	for i := 0; i < reg.Len(); i++ {
		view.Prices[reg.Pool(i).String()] = prices[i]
	}
	s.pricesVal = view
	s.pricesAt = time.Now()
	s.pricesMu.Unlock()
	writeJSON(w, view)
}

func (s *Server) handleHistoryJSON(w http.ResponseWriter, r *http.Request) {
	clusterName := r.URL.Query().Get("cluster")
	dimName := r.URL.Query().Get("dim")
	dim, err := resource.ParseDimension(dimName)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	limit, ok := pollLimit(r, defaultAuctionsLimit)
	if !ok {
		http.Error(w, "limit must be a positive integer", http.StatusBadRequest)
		return
	}
	hist := s.ex.PriceHistoryTail(resource.Pool{Cluster: clusterName, Dim: dim}, limit)
	if hist == nil {
		http.Error(w, "unknown pool", http.StatusNotFound)
		return
	}
	writeJSON(w, hist)
}

// currentPrices returns the best available price vector for display: the
// last converged settlement when one exists (a failed clock's prices are
// not clearing prices), otherwise the live reserve prices.
func (s *Server) currentPrices() (resource.Vector, error) {
	if p := s.ex.LastClearingPrices(); p != nil {
		return p, nil
	}
	return s.ex.ReservePrices()
}

// auctionView is the wire form of a settled auction record.
type auctionView struct {
	Number        int     `json:"number"`
	Rounds        int     `json:"rounds"`
	Converged     bool    `json:"converged"`
	Submitted     int     `json:"submitted"`
	Settled       int     `json:"settled"`
	PremiumMedian float64 `json:"premiumMedian"`
	PremiumMean   float64 `json:"premiumMean"`
}

// handleAuctionsJSON returns the settled auction history with the
// Table I premium statistics per auction — the most recent records,
// bounded by ?limit=N (default defaultAuctionsLimit).
func (s *Server) handleAuctionsJSON(w http.ResponseWriter, r *http.Request) {
	limit, ok := pollLimit(r, defaultAuctionsLimit)
	if !ok {
		http.Error(w, "limit must be a positive integer", http.StatusBadRequest)
		return
	}
	hist := s.ex.HistoryTail(limit)
	out := make([]auctionView, 0, len(hist))
	for _, rec := range hist {
		out = append(out, auctionView{
			Number:        rec.Number,
			Rounds:        rec.Rounds,
			Converged:     rec.Converged,
			Submitted:     rec.Submitted,
			Settled:       rec.Settled,
			PremiumMedian: rec.PremiumMedian(),
			PremiumMean:   rec.PremiumMean(),
		})
	}
	writeJSON(w, out)
}

// orderView is the wire form of one order on the polling API.
type orderView struct {
	ID      int     `json:"id"`
	Team    string  `json:"team"`
	User    string  `json:"user"`
	Status  string  `json:"status"`
	Auction int     `json:"auction"`
	Payment float64 `json:"payment"`
	Limit   float64 `json:"limit"`
}

// handleOrdersJSON returns the most recent orders (highest IDs first
// submitted last), bounded by ?limit=N with a small default — the
// polling front end only renders a page of rows, so cloning the whole
// book per poll was pure waste. The unbounded dump remains available via
// Exchange.Orders for tests and batch export.
func (s *Server) handleOrdersJSON(w http.ResponseWriter, r *http.Request) {
	limit, ok := pollLimit(r, defaultOrdersLimit)
	if !ok {
		http.Error(w, "limit must be a positive integer", http.StatusBadRequest)
		return
	}
	orders := s.ex.OrdersTail(limit)
	out := make([]orderView, 0, len(orders))
	for _, o := range orders {
		out = append(out, orderView{
			ID:      o.ID,
			Team:    o.Team,
			User:    o.Bid.User,
			Status:  o.Status.String(),
			Auction: o.Auction,
			Payment: o.Payment,
			Limit:   o.Bid.MaxLimit(),
		})
	}
	writeJSON(w, out)
}

func render(w http.ResponseWriter, t *template.Template, view any) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := t.Execute(w, view); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) redirectErr(w http.ResponseWriter, r *http.Request, msg string) {
	errRedirect(w, r, s.prefix+"/bid", msg)
}

// errRedirect bounces back to path with the message in the err query
// parameter, escaped so error text containing &, %, or # survives.
func errRedirect(w http.ResponseWriter, r *http.Request, path, msg string) {
	http.Redirect(w, r, path+"?err="+url.QueryEscape(msg), http.StatusSeeOther)
}

// finitePositive reports whether v is a finite number greater than
// zero. strconv.ParseFloat happily accepts "NaN", "+Inf", and "-Inf",
// so bid ingress must reject non-finite values explicitly before they
// reach budget reservation or auction arithmetic.
func finitePositive(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v > 0
}

// maxFormBytes bounds a bid form post. A real form is a few hundred
// bytes; the cap keeps an oversized or hostile body from being read
// whole into memory.
const maxFormBytes = 64 << 10

// parseForm reads a POST form body of at most maxFormBytes. It answers
// 413 for a larger body and 400 for a malformed one, and reports
// whether the handler may go on.
func parseForm(w http.ResponseWriter, r *http.Request) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxFormBytes)
	err := r.ParseForm()
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		http.Error(w, fmt.Sprintf("form body exceeds %d bytes", maxFormBytes), http.StatusRequestEntityTooLarge)
	} else {
		http.Error(w, "malformed form: "+err.Error(), http.StatusBadRequest)
	}
	return false
}

func splitCSV(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
