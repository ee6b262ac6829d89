package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"clustermarket/internal/core"
	"clustermarket/internal/journal"
	"clustermarket/internal/telemetry"
	"clustermarket/internal/webui"
)

func TestBuildDemo(t *testing.T) {
	ex, _, err := buildDemo(4, 6, 42, 5000, core.EngineIncremental, core.PartitionAuto, 0, "", 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ex.Teams()); got != 5 {
		t.Fatalf("teams = %d", got)
	}
	if got := ex.Registry().Len(); got != 12 {
		t.Fatalf("pools = %d", got)
	}
	// The demo fleet must contain both hot and cold clusters so the
	// summary page shows contrast.
	rows, err := ex.Summary()
	if err != nil {
		t.Fatal(err)
	}
	var hot, cold bool
	for _, r := range rows {
		if r.Utilization.CPU >= 0.7 {
			hot = true
		}
		if r.Utilization.CPU <= 0.4 {
			cold = true
		}
	}
	if !hot || !cold {
		t.Errorf("demo lacks load contrast: hot=%v cold=%v", hot, cold)
	}

	// The demo exchange serves the web UI end to end.
	ts := httptest.NewServer(webui.New(ex))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "Market summary") {
		t.Error("summary page missing title")
	}
}

func TestBuildDemoBadInputs(t *testing.T) {
	// Zero clusters yields an exchange error (no pools).
	if _, _, err := buildDemo(0, 4, 1, 100, core.EngineIncremental, core.PartitionAuto, 0, "", 1, 0, nil); err == nil {
		t.Error("zero clusters accepted")
	}
}

func TestValidateFlags(t *testing.T) {
	if err := validateFlags(8, 20, 0, 0, 10000, 30*time.Second, 0); err != nil {
		t.Errorf("default flags rejected: %v", err)
	}
	if err := validateFlags(4, 10, 3, 4, 5000, 0, 2*time.Second); err != nil {
		t.Errorf("federated flags rejected: %v", err)
	}
	bad := []struct {
		name                                string
		clusters, machines, regions, shards int
		budget                              float64
		epoch                               time.Duration
		lockWait                            time.Duration
	}{
		{"zero clusters", 0, 20, 0, 0, 10000, time.Second, 0},
		{"negative clusters", -3, 20, 0, 0, 10000, time.Second, 0},
		{"zero machines", 8, 0, 0, 0, 10000, time.Second, 0},
		{"zero budget", 8, 20, 0, 0, 0, time.Second, 0},
		{"negative budget", 8, 20, 0, 0, -5, time.Second, 0},
		{"negative epoch", 8, 20, 0, 0, 10000, -time.Second, 0},
		{"negative regions", 8, 20, -1, 0, 10000, time.Second, 0},
		{"one region", 8, 20, 1, 0, 10000, time.Second, 0},
		{"negative shards", 8, 20, 0, -2, 10000, time.Second, 0},
		{"negative lock-wait", 8, 20, 0, 0, 10000, time.Second, -time.Second},
	}
	for _, tc := range bad {
		if err := validateFlags(tc.clusters, tc.machines, tc.regions, tc.shards, tc.budget, tc.epoch, tc.lockWait); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestBuildFederatedDemo(t *testing.T) {
	fed, _, err := buildFederatedDemo(3, 2, 6, 42, 5000, core.EngineIncremental, core.PartitionAuto, 2, "", 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	regions := fed.Regions()
	if len(regions) != 3 {
		t.Fatalf("regions = %d", len(regions))
	}
	if regions[0].Name() != "us" || regions[1].Name() != "eu" {
		t.Errorf("region names = %s, %s", regions[0].Name(), regions[1].Name())
	}
	if got := fed.RegionOf("eu-r1"); got != "eu" {
		t.Errorf("eu-r1 owned by %q", got)
	}
	if got := len(fed.Teams()); got != 5 {
		t.Errorf("teams = %d", got)
	}

	// The federated demo serves the global view and drill-downs end to
	// end, and a cross-region bid routes away from the hot us region.
	if _, err := fed.SubmitProduct("search", "batch-compute", 1, []string{"us-r1", "eu-r1"}, 100); err != nil {
		t.Fatal(err)
	}
	fed.Tick()
	ts := httptest.NewServer(webui.NewFederated(fed))
	defer ts.Close()
	for _, path := range []string{"/", "/region/eu/", "/region/eu/bid"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
	}
	st := fed.Stats()
	if st.CrossRegion != 1 || st.Won != 1 {
		t.Errorf("router stats = %+v", st)
	}
}

// TestServeGracefulShutdown drives the real serve() path: the server
// accepts traffic, then drains cleanly once the context is cancelled —
// the SIGINT/SIGTERM flow without the signal.
func TestServeGracefulShutdown(t *testing.T) {
	ex, _, err := buildDemo(2, 4, 7, 1000, core.EngineIncremental, core.PartitionAuto, 0, "", 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveListener(ctx, ln, webui.New(ex)) }()

	// Wait for the listener, then confirm it serves.
	var resp *http.Response
	for i := 0; i < 100; i++ {
		resp, err = http.Get("http://" + addr + "/")
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}
	resp.Body.Close()

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v, want clean shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not drain after cancel")
	}
}

// TestServeDropsSlowHeader sends half a request header and stalls: the
// front door must hang up once the header timeout passes instead of
// holding the connection open.
func TestServeDropsSlowHeader(t *testing.T) {
	saved := readHeaderTimeout
	readHeaderTimeout = 100 * time.Millisecond
	t.Cleanup(func() { readHeaderTimeout = saved })

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveListener(ctx, ln, http.NotFoundHandler()) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\nHost: marketd\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	n, err := conn.Read(make([]byte, 512))
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("server held a half-sent header open for %s", time.Since(start))
	}
	if err == nil {
		t.Fatalf("server answered a half-sent header with %d bytes", n)
	}
}

func TestParseEngine(t *testing.T) {
	if e, err := parseEngine("incremental"); err != nil || e != core.EngineIncremental {
		t.Errorf("incremental = %v, %v", e, err)
	}
	if e, err := parseEngine("dense"); err != nil || e != core.EngineDense {
		t.Errorf("dense = %v, %v", e, err)
	}
	if _, err := parseEngine("warp"); err == nil {
		t.Error("unknown engine accepted")
	}
}

// TestJournaledDemoRecovers restarts the journaled demo world and
// requires the books to come back exactly: same auctions, same teams,
// same balances. It also pins the startup refusal on a locked journal
// directory — the flock a live marketd holds.
func TestJournaledDemoRecovers(t *testing.T) {
	dir := t.TempDir()
	ex, closer, err := buildDemo(3, 6, 11, 8000, core.EngineIncremental, core.PartitionAuto, 0, dir, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.SubmitProduct("search", "batch-compute", 2, []string{"r1", "r2"}, 4000); err != nil {
		t.Fatal(err)
	}
	if _, err := ex.SubmitProduct("ads", "batch-compute", 1, []string{"r2"}, 2000); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ex.RunAuction(); err != nil {
		t.Fatal(err)
	}
	wantHistory := len(ex.History())
	wantBalance, err := ex.Balance("search")
	if err != nil {
		t.Fatal(err)
	}

	// While the first process holds the directory, a second must refuse.
	if _, _, err := buildDemo(3, 6, 11, 8000, core.EngineIncremental, core.PartitionAuto, 0, dir, 1, 0, nil); err == nil {
		t.Fatal("second marketd opened a locked journal dir")
	}

	if err := closer(); err != nil {
		t.Fatal(err)
	}

	ex2, closer2, err := buildDemo(3, 6, 11, 8000, core.EngineIncremental, core.PartitionAuto, 0, dir, 1, 0, nil)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer closer2()
	if got := len(ex2.History()); got != wantHistory {
		t.Errorf("recovered %d auctions, want %d", got, wantHistory)
	}
	if got := len(ex2.Teams()); got != len(demoTeams) {
		t.Errorf("recovered %d teams, want %d", got, len(demoTeams))
	}
	gotBalance, err := ex2.Balance("search")
	if err != nil {
		t.Fatal(err)
	}
	if gotBalance != wantBalance {
		t.Errorf("recovered balance %v, want %v", gotBalance, wantBalance)
	}
}

// TestJournaledFederatedDemoRecovers restarts the journaled federated
// demo: every region and the router recover to the same cut.
func TestJournaledFederatedDemoRecovers(t *testing.T) {
	dir := t.TempDir()
	fed, closer, err := buildFederatedDemo(2, 2, 6, 11, 8000, core.EngineIncremental, core.PartitionAuto, 0, dir, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fed.SubmitProduct("search", "batch-compute", 1, []string{"us-r1", "eu-r1"}, 2000); err != nil {
		t.Fatal(err)
	}
	fed.Tick()
	wantStats := fed.Stats()
	wantOrders := len(fed.Orders())
	if err := closer(); err != nil {
		t.Fatal(err)
	}

	fed2, closer2, err := buildFederatedDemo(2, 2, 6, 11, 8000, core.EngineIncremental, core.PartitionAuto, 0, dir, 1, 0, nil)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer closer2()
	if got := fed2.Stats(); got != wantStats {
		t.Errorf("recovered stats %+v, want %+v", got, wantStats)
	}
	if got := len(fed2.Orders()); got != wantOrders {
		t.Errorf("recovered %d orders, want %d", got, wantOrders)
	}
}

// TestDemoOpsEndpoints proves the wired-up observability surface: a
// demo world built with a firehose serves live Prometheus text at
// /metrics, a health probe at /healthz, and the event feed at
// /api/events — the same wiring main() performs.
func TestDemoOpsEndpoints(t *testing.T) {
	fire := telemetry.NewFirehose()
	ex, _, err := buildDemo(2, 4, 7, 5000, core.EngineIncremental, core.PartitionAuto, 0, "", 1, 0, fire)
	if err != nil {
		t.Fatal(err)
	}
	health := telemetry.NewHealth(time.Now())
	health.RecordCheck(time.Now(), liveViolations(ex))
	s := webui.New(ex)
	s.SetHealth(health)
	ts := httptest.NewServer(s)
	defer ts.Close()

	if _, err := ex.SubmitProduct("search", "batch-compute", 1, []string{"r1", "r2"}, 2000); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ex.RunAuction(); err != nil {
		t.Fatal(err)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1<<16)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	text := string(body[:n])
	for _, want := range []string{
		"market_orders_submitted_total 1",
		"market_auctions_total 1",
		"telemetry_events_published_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	n, _ = resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/healthz status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body[:n]), `"healthy":true`) {
		t.Errorf("/healthz not healthy: %s", body[:n])
	}
}

// TestLockWaitRetries pins the -lock-wait restart race: opening a
// journal directory held by a live process fails fast with no wait
// budget, but a bounded retry loop picks the directory up as soon as
// the holder releases it.
func TestLockWaitRetries(t *testing.T) {
	dir := t.TempDir()
	_, closer, err := buildDemo(2, 4, 7, 1000, core.EngineIncremental, core.PartitionAuto, 0, dir, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Without a wait budget the held lock is a hard startup failure.
	if _, _, err := buildDemo(2, 4, 7, 1000, core.EngineIncremental, core.PartitionAuto, 0, dir, 1, 0, nil); !errors.Is(err, journal.ErrLocked) {
		t.Fatalf("locked open without wait = %v, want ErrLocked", err)
	}

	// Release the lock mid-wait; the retry loop must pick it up and
	// recover the previous run's books.
	go func() {
		time.Sleep(150 * time.Millisecond)
		closer()
	}()
	ex2, closer2, err := buildDemo(2, 4, 7, 1000, core.EngineIncremental, core.PartitionAuto, 0, dir, 1, 5*time.Second, nil)
	if err != nil {
		t.Fatalf("open with lock-wait: %v", err)
	}
	defer closer2()
	if got := len(ex2.Teams()); got != len(demoTeams) {
		t.Errorf("recovered %d teams, want %d", got, len(demoTeams))
	}
}
