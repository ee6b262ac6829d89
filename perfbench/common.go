package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"time"

	"clustermarket/internal/core"
	"clustermarket/internal/invariant"
	"clustermarket/internal/journal"
	"clustermarket/internal/market"
	"clustermarket/internal/resource"
	"clustermarket/internal/telemetry"
	"clustermarket/internal/webui"
)

// stackConfig describes the served market of front-door and long-uptime.
type stackConfig struct {
	seed          int64
	clusters      int
	machines      int
	teams         []string
	journalDir    string
	snapshotEvery int // market.Config.SnapshotEvery; 0 keeps the default
	subscribe     bool
}

// stack is the served market, composed as cmd/marketd composes it.
type stack struct {
	cfg    stackConfig
	world  *planet
	j      *journal.Journal
	ex     *market.Exchange
	fire   *telemetry.Firehose
	sub    *telemetry.Subscription
	events chan int64 // the subscription drainer's event count, sent once it ends
	srv    *http.Server
	served chan error
	addr   string
}

// buildStack builds the world: fleet, journal (fsync every record, as
// marketd's default -fsync-every), exchange, funded teams, a firehose
// and optionally a subscriber on it, and the web UI on a loopback port.
func buildStack(cfg stackConfig, tr *tracer) (*stack, error) {
	world, err := buildPlanet(cfg.seed, 1, cfg.clusters, cfg.machines)
	if err != nil {
		return nil, err
	}
	s := &stack{cfg: cfg, world: world, fire: telemetry.NewFirehose()}
	j, rec, err := journal.Open(cfg.journalDir, journalOptions(tr))
	if err != nil {
		return nil, err
	}
	if !rec.Empty() {
		j.Close()
		return nil, fmt.Errorf("journal %s is not empty", cfg.journalDir)
	}
	s.j = j
	s.ex, err = market.NewExchange(world.fleet, s.exchangeConfig())
	if err == nil {
		err = openTeams(s.ex, cfg.teams)
	}
	if err != nil {
		j.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.closeJournal()
		return nil, err
	}
	if cfg.subscribe {
		// The buffer holds many epochs of events; the drainer keeps up,
		// and telemetry.dropped_share shows when it does not.
		s.sub = s.fire.Subscribe(4096)
		s.events = make(chan int64, 1)
		go func(c <-chan telemetry.Event) {
			var n int64
			for range c {
				n++
			}
			s.events <- n
		}(s.sub.C)
	}
	ui := webui.New(s.ex)
	ui.SetHealth(telemetry.NewHealth(time.Now()))
	var h http.Handler = ui
	if tr != nil {
		h = timedHandler{h: ui, t: tr}
	}
	s.addr = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: h}
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

func journalOptions(tr *tracer) journal.Options {
	opts := journal.Options{FsyncEvery: 1}
	if tr != nil {
		opts.FS = timingFS{FS: journal.OSFS(), t: tr}
	}
	return opts
}

func (s *stack) exchangeConfig() market.Config {
	return market.Config{InitialBudget: budget, Journal: s.j, SnapshotEvery: s.cfg.snapshotEvery, Telemetry: s.fire}
}

// stopServing shuts the web UI down and detaches the subscriber. It
// returns the number of events the subscriber received.
func (s *stack) stopServing() (int64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	var events int64
	if s.sub != nil {
		s.sub.Close()
		events = <-s.events
	}
	return events, err
}

func (s *stack) closeJournal() error {
	if s.j == nil {
		return nil
	}
	err := s.j.Close()
	s.j = nil
	return err
}

// close tears down a stack built only to time set-up; no measurement
// depends on how its teardown went.
func (s *stack) close() {
	_, _ = s.stopServing()
	_ = s.closeJournal()
}

// window is what a workload measured in its timed window.
type window struct {
	submit, poll, clear dist
	elapsed             time.Duration
	// before and after are the exchange's counters around the window.
	before, after market.Metrics
}

// terminal counts the orders that have reached a terminal state.
func terminal(m market.Metrics) uint64 { return m.Won + m.Lost + m.Unsettled }

// report sets the window's end-to-end metrics and tails.
func (w *window) report(r *run) {
	done := float64(terminal(w.after) - terminal(w.before))
	r.setE2E("submit_p50_ms", "ms", w.submit.p50())
	r.setTail("submit_tail_ms", "ms", w.submit)
	r.setE2E("poll_p50_ms", "ms", w.poll.p50())
	r.setTail("poll_tail_ms", "ms", w.poll)
	r.setE2E("clear_p50_ms", "ms", w.clear.p50())
	r.setTail("clear_tail_ms", "ms", w.clear)
	r.setE2E("settled_per_s", "1/s", done/w.elapsed.Seconds())
	r.setLayer("market.won_share", "share", ratio(float64(w.after.Won-w.before.Won), done))
}

// finishServed ends a front-door or long-uptime run: it drains the book,
// stops serving, runs the final checks, takes the heap and the restarts,
// and sets the per-layer numbers. results are the client's requests.
func finishServed(r *run, s *stack, ep *epochs, acked []int, results []exchange) {
	drain(r, ep.loop, s.ex)
	events, err := s.stopServing()
	r.check(err == nil, "stopping the web UI: %v", err)
	finalChecks(r, s.ex, acked, s.world)
	heap := heapMB()
	r.setE2E("heap_mb", "MB", heap)
	m := s.ex.Metrics()
	submitted := float64(m.Submitted)
	r.setLayer("market.heap_kb_per_order", "KB", heap*1e6/1024/submitted)
	r.setLayer("market.rejected", "count", float64(m.Rejected))
	r.setLayer("telemetry.events_per_order", "count", ratio(float64(events), submitted))
	r.setLayer("telemetry.dropped_share", "share", ratio(float64(s.fire.Dropped()), float64(s.fire.Published())))
	ep.report(r)
	restart(r, s)
	if r.traced() {
		r.tr.report(r, submitted, results)
	}
}

// liveCheck is marketd's /healthz probe: the invariants that hold while
// settlements are in flight.
func liveCheck(ex *market.Exchange) []invariant.Violation {
	vs := invariant.CheckLedgerBalanced(ex.Ledger(), invariant.Eps)
	balances := make(map[string]float64)
	for _, team := range ex.Teams() {
		if b, err := ex.Balance(team); err == nil {
			balances[team] = b
		}
	}
	return append(vs, invariant.CheckBalancesNonNegative(balances, invariant.Eps)...)
}

// liveChecks collects the live check's durations per epoch.
type liveChecks struct{ d dist }

func (l *liveChecks) run(r *run, ex *market.Exchange) {
	start := time.Now()
	vs := liveCheck(ex)
	end := time.Now()
	l.d.addDur(end.Sub(start))
	if r.traced() {
		r.tr.record(0, "invariant.live_check", start, end)
	}
	r.check(len(vs) == 0, "live check after epoch %d: %v", len(l.d), vs)
}

// report sets the live-check metrics: p50 over the first and the last
// tenth of epochs.
func (l *liveChecks) report(r *run) {
	n := len(l.d)
	k := max(1, n/10)
	if n == 0 {
		k = 0
	}
	r.setLayer("invariant.live_check_ms.first", "ms", dist(l.d[:k]).p50())
	r.setLayer("invariant.live_check_ms.last", "ms", dist(l.d[n-k:]).p50())
}

// drain ticks until the book is empty. Every tick settles or retires
// orders, so a bounded number of ticks always suffices; running out of
// them is a failed check.
func drain(r *run, loop *market.Loop, ex *market.Exchange) {
	for i := 0; ex.OpenOrderCount() > 0; i++ {
		if i == 10 {
			r.check(false, "book did not drain: %d orders still open", ex.OpenOrderCount())
			return
		}
		if _, err := loop.Tick(); err != nil && !isNoConvergence(err) {
			r.check(false, "drain tick: %v", err)
			return
		}
	}
}

// finalChecks runs after the final drain: the full invariant kernel,
// every acknowledged order terminal, and hot pools clearing above cold
// ones. It times the kernel as invariant.full_check_ms.
func finalChecks(r *run, ex *market.Exchange, acked []int, world *planet) {
	start := time.Now()
	vs := invariant.CheckExchange(ex)
	r.setLayer("invariant.full_check_ms", "ms", ms(time.Since(start)))
	r.check(len(vs) == 0, "invariant.CheckExchange: %v", vs)

	open := 0
	for _, id := range acked {
		o, err := ex.Order(id)
		if err != nil || o.Status == market.Open {
			open++
		}
	}
	r.failed += int64(open)
	r.check(open == 0, "%d of %d acknowledged orders are not terminal", open, len(acked))
	checkHotAboveCold(r, ex, world)
}

// checkHotAboveCold checks the paper's Figure 6 contrast on the last
// clearing prices: in every region and dimension, the mean price over
// congested clusters exceeds the mean over uncongested ones.
func checkHotAboveCold(r *run, ex *market.Exchange, world *planet) {
	prices := ex.LastClearingPrices()
	if prices == nil {
		r.check(false, "no converged auction to read clearing prices from")
		return
	}
	reg := ex.Registry()
	mean := func(clusters []string, d resource.Dimension) float64 {
		s := 0.0
		for _, c := range clusters {
			s += prices[reg.MustIndex(resource.Pool{Cluster: c, Dim: d})]
		}
		return s / float64(len(clusters))
	}
	for gi, g := range world.regions {
		hot, cold := g.split()
		if len(hot) == 0 || len(cold) == 0 {
			continue
		}
		for _, d := range resource.StandardDimensions {
			h, c := mean(hot, d), mean(cold, d)
			r.check(h > c, "region %d %s: hot clearing price %.4f not above cold %.4f", gi, d, h, c)
		}
	}
}

// restart closes the journal and times a restart the way marketd
// performs one: journal.Open, market.Recover over the rebuilt fleet, and
// invariant.CheckExchange. It then checks that the restarted exchange
// equals the live one.
func restart(r *run, s *stack) {
	if err := s.closeJournal(); err != nil {
		r.check(false, "closing journal: %v", err)
		return
	}
	world, err := buildPlanet(s.cfg.seed, 1, s.cfg.clusters, s.cfg.machines)
	if err != nil {
		r.check(false, "rebuilding fleet: %v", err)
		return
	}
	runtime.GC()
	t0 := time.Now()
	j, rec, err := journal.Open(s.cfg.journalDir, journalOptions(nil))
	if err != nil {
		r.check(false, "reopening journal: %v", err)
		return
	}
	defer j.Close()
	t1 := time.Now()
	cfg := s.exchangeConfig()
	cfg.Journal = j
	back, err := market.Recover(world.fleet, cfg, rec)
	t2 := time.Now()
	if err != nil {
		r.check(false, "recover: %v", err)
		return
	}
	vs := invariant.CheckExchange(back)
	t3 := time.Now()
	r.check(len(vs) == 0, "recovered exchange: %v", vs)
	r.setLayer("recover_s", "s", t3.Sub(t0).Seconds())
	r.setLayer("journal.open_s", "s", t1.Sub(t0).Seconds())
	r.setLayer("market.replay_s", "s", t2.Sub(t1).Seconds())
	r.setLayer("journal.records_replayed", "count", float64(len(rec.Records)))
	if err := sameExchange(s.ex, back); err != nil {
		r.check(false, "restarted exchange differs from the live one: %v", err)
	}
}

// sameExchange compares the books a restart must reproduce: orders,
// balances, ledger length, auction history and last clearing prices.
func sameExchange(live, back *market.Exchange) error {
	lo, bo := live.Orders(), back.Orders()
	if len(lo) != len(bo) {
		return fmt.Errorf("%d orders, restarted %d", len(lo), len(bo))
	}
	for i := range lo {
		a, b := lo[i], bo[i]
		if a.ID != b.ID || a.Team != b.Team || a.Status != b.Status || a.Auction != b.Auction ||
			a.Attempts != b.Attempts || math.Float64bits(a.Payment) != math.Float64bits(b.Payment) ||
			!bitEqual(a.Allocation, b.Allocation) {
			return fmt.Errorf("order %d: live %+v, restarted %+v", a.ID, *a, *b)
		}
	}
	lt, bt := live.Teams(), back.Teams()
	if len(lt) != len(bt) {
		return fmt.Errorf("%d teams, restarted %d", len(lt), len(bt))
	}
	for i, team := range lt {
		if bt[i] != team {
			return fmt.Errorf("team %q, restarted %q", team, bt[i])
		}
		a, _ := live.Balance(team)
		b, _ := back.Balance(team)
		if math.Float64bits(a) != math.Float64bits(b) {
			return fmt.Errorf("team %s balance %v, restarted %v", team, a, b)
		}
	}
	if a, b := len(live.Ledger()), len(back.Ledger()); a != b {
		return fmt.Errorf("%d ledger entries, restarted %d", a, b)
	}
	lh, bh := live.History(), back.History()
	if len(lh) != len(bh) {
		return fmt.Errorf("%d auctions, restarted %d", len(lh), len(bh))
	}
	for i := range lh {
		a, b := lh[i], bh[i]
		if a.Number != b.Number || a.Rounds != b.Rounds || a.Converged != b.Converged ||
			a.Submitted != b.Submitted || a.Settled != b.Settled || !bitEqual(a.Prices, b.Prices) {
			return fmt.Errorf("auction %d differs", a.Number)
		}
	}
	if !bitEqual(live.LastClearingPrices(), back.LastClearingPrices()) {
		return errors.New("last clearing prices differ")
	}
	return nil
}

// heapMB forces collections and returns the live heap in MB. The second
// cycle frees what sync.Pool victim caches (encoding buffers as large as
// the last snapshot) still held after the first.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// gcWindow measures garbage collection over a measured window.
type gcWindow struct{ before runtime.MemStats }

func startGC() *gcWindow {
	w := &gcWindow{}
	runtime.ReadMemStats(&w.before)
	return w
}

// report sets runtime.gc_cycles and runtime.gc_pause_ms.tail over the
// window (the pause ring holds the last 256 cycles).
func (w *gcWindow) report(r *run) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	cycles := m.NumGC - w.before.NumGC
	var pauses dist
	for i := uint32(0); i < cycles && i < 256; i++ {
		pauses.add(float64(m.PauseNs[(m.NumGC-1-i)%256]) / 1e6)
	}
	r.setLayer("runtime.gc_cycles", "count", float64(cycles))
	r.setTail("runtime.gc_pause_ms.tail", "ms", pauses)
}

// measureSetup builds the world reps times, each after a collection, and
// returns the median build time with the last world, the others torn
// down.
func measureSetup[W any](reps int, build func(i int) (W, error), teardown func(W)) (W, float64, error) {
	var times []float64
	var w W
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		got, err := build(i)
		if err != nil {
			return w, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < reps-1 {
			teardown(got)
		} else {
			w = got
		}
	}
	return w, median(times), nil
}

func isNoConvergence(err error) bool { return errors.Is(err, core.ErrNoConvergence) }
