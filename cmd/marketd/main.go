// Command marketd serves the trading-platform web UI (Figures 3–5) over a
// demo world: a fleet of clusters with skewed utilization and a set of
// team accounts ready to bid.
//
//	marketd -addr :8080 -clusters 8 -seed 42 -epoch 30s
//
// Then browse http://localhost:8080/ for the market summary and /bid to
// enter bids. With -epoch set, accumulated orders settle automatically
// in one clock auction per epoch; POST /auction/run forces a settlement
// at any time (and is the only way to settle when -epoch is 0).
//
// With -regions N (N ≥ 2), marketd builds a federated world instead: N
// regional markets, each with its own fleet and epoch loop, fronted by
// the global market view at / with per-region drill-downs under
// /region/<name>/. The first region runs hot so cross-region bids
// visibly route toward the cheaper regions.
//
// -shards sets the number of stripes each exchange's order and account
// books are split into (0 selects the library default): order entry in
// different stripes never shares a lock, so the web tier's submit path
// scales with CPUs.
//
// With -journal-dir set, every settlement-relevant state change is
// journaled to a durable WAL before it takes effect (-fsync-every sets
// the group-commit window). Restarting marketd against the same
// directory — with the same world flags (-clusters, -machines, -seed,
// -budget, -regions) — recovers the books exactly where the previous
// process left them, verifying the shared invariant kernel before
// serving. A directory already held by a live process is refused at
// startup (the journal's lockfile), so two marketds cannot interleave
// writes to one WAL.
//
// marketd shuts down cleanly on SIGINT/SIGTERM: the epoch loops are
// cancelled, the HTTP server drains in-flight requests, and the journal
// is flushed, fsynced, and unlocked before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"clustermarket/internal/cluster"
	"clustermarket/internal/core"
	"clustermarket/internal/federation"
	"clustermarket/internal/invariant"
	"clustermarket/internal/journal"
	"clustermarket/internal/market"
	"clustermarket/internal/telemetry"
	"clustermarket/internal/webui"
)

// shutdownTimeout bounds how long in-flight HTTP requests may drain
// after a termination signal.
const shutdownTimeout = 5 * time.Second

// The front door's connection timeouts: a client that has not finished
// sending its request header within readHeaderTimeout, or leaves a
// keep-alive connection idle for idleTimeout, is disconnected, so slow
// or stalled clients cannot pin connections. There is deliberately no
// write timeout: the /api/events SSE stream is long-lived. Variables
// only so tests can shorten them.
var (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	clusters := flag.Int("clusters", 8, "number of clusters (per region with -regions)")
	machines := flag.Int("machines", 20, "machines per cluster")
	seed := flag.Int64("seed", 42, "random seed for the demo load")
	budget := flag.Float64("budget", 10000, "initial budget per team")
	epoch := flag.Duration("epoch", 30*time.Second,
		"auction epoch: settle accumulated orders every interval (0 disables the loop)")
	regions := flag.Int("regions", 0,
		"number of federated regions (0 = single exchange, ≥2 = federated market)")
	shards := flag.Int("shards", 0,
		"order/account book stripes per exchange (0 selects the default); submits in different stripes never share a lock")
	engineName := flag.String("engine", "incremental",
		"clock-auction engine: incremental (O(affected bidders) per round) or dense (reference path)")
	partition := flag.Bool("partition", true,
		"decompose each clock auction into independent bidder–pool components and clear them concurrently (bit-identical to the merged run); false pins the merged single-clock path")
	journalDir := flag.String("journal-dir", "",
		"durable journal directory: state changes hit the WAL before taking effect, and a restart recovers the books (world flags must match the previous run)")
	fsyncEvery := flag.Int("fsync-every", 1,
		"journal group-commit window: fsync the WAL after every N appended records (an auction's settlement is one batch: it counts as one record per order plus one, but costs a single fsync)")
	lockWait := flag.Duration("lock-wait", 0,
		"how long to retry opening a journal directory locked by another live process (0 fails immediately); covers the restart race where the previous marketd is still draining")
	flag.Parse()

	if err := validateFlags(*clusters, *machines, *regions, *shards, *budget, *epoch, *lockWait); err != nil {
		fmt.Fprintf(os.Stderr, "marketd: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	engine, err := parseEngine(*engineName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "marketd: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	partMode := core.PartitionAuto
	if !*partition {
		partMode = core.PartitionOff
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Every exchange and the federation router publish to one firehose,
	// so /metrics and the /api/events live feed see the whole process.
	fire := telemetry.NewFirehose()
	health := telemetry.NewHealth(time.Now())
	health.SetJournal(*journalDir, *journalDir != "")

	var handler http.Handler
	// closeJournal flushes, fsyncs, and unlocks the journal(s) after the
	// HTTP server has drained — the durability half of graceful shutdown.
	closeJournal := func() error { return nil }
	if *regions > 0 {
		fed, closer, err := buildFederatedDemo(*regions, *clusters, *machines, *seed, *budget, engine, partMode, *shards, *journalDir, *fsyncEvery, *lockWait, fire)
		if err != nil {
			log.Fatal("marketd: ", err)
		}
		closeJournal = closer
		if *epoch > 0 {
			go fed.Serve(ctx, *epoch)
			log.Printf("marketd: %d region epoch loops settling every %s", *regions, *epoch)
		} else {
			log.Printf("marketd: epoch loops disabled; settle per region via POST /region/<name>/auction/run")
		}
		// The federation's epoch loops live inside Serve, so health checks
		// run on their own clock rather than a per-tick hook.
		exs := make([]*market.Exchange, 0, *regions)
		for _, r := range fed.Regions() {
			exs = append(exs, r.Exchange())
		}
		health.RecordCheck(time.Now(), liveViolations(exs...))
		go healthLoop(ctx, health, *epoch, exs...)
		s := webui.NewFederated(fed)
		s.SetHealth(health)
		handler = s
		log.Printf("marketd: serving federated market (%d regions) on %s", *regions, *addr)
	} else {
		ex, closer, err := buildDemo(*clusters, *machines, *seed, *budget, engine, partMode, *shards, *journalDir, *fsyncEvery, *lockWait, fire)
		if err != nil {
			log.Fatal("marketd: ", err)
		}
		closeJournal = closer
		health.RecordCheck(time.Now(), liveViolations(ex))
		if *epoch > 0 {
			loop, err := market.NewLoop(ex, *epoch)
			if err != nil {
				log.Fatal("marketd: ", err)
			}
			loop.OnTick = func(rec *market.AuctionRecord, err error) {
				health.RecordCheck(time.Now(), liveViolations(ex))
				if err != nil {
					log.Printf("marketd: epoch auction: %v", err)
					return
				}
				log.Printf("marketd: auction %d settled %d/%d orders in %d rounds",
					rec.Number, rec.Settled, rec.Submitted, rec.Rounds)
			}
			go loop.Run(ctx)
			log.Printf("marketd: epoch auction loop settling every %s", *epoch)
		} else {
			go healthLoop(ctx, health, 0, ex)
			log.Printf("marketd: epoch loop disabled; settle via POST /auction/run")
		}
		s := webui.New(ex)
		s.SetHealth(health)
		handler = s
		log.Printf("marketd: serving trading platform on %s", *addr)
	}

	if err := serve(ctx, *addr, handler); err != nil {
		closeJournal()
		log.Fatal("marketd: ", err)
	}
	if err := closeJournal(); err != nil {
		log.Fatal("marketd: closing journal: ", err)
	}
	log.Printf("marketd: shut down cleanly")
}

// serve listens on addr and runs serveListener.
func serve(ctx context.Context, addr string, handler http.Handler) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return serveListener(ctx, ln, handler)
}

// serveListener runs an HTTP server on ln until ctx is cancelled
// (SIGINT/SIGTERM), then drains in-flight requests for up to
// shutdownTimeout. A nil return means a clean shutdown.
func serveListener(ctx context.Context, ln net.Listener, handler http.Handler) error {
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		// Serving failed before any signal.
		return err
	case <-ctx.Done():
	}
	log.Printf("marketd: signal received, draining (max %s)", shutdownTimeout)
	shutCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// healthCheckInterval is the /healthz invariant-check cadence when no
// epoch loop exists to hook.
const healthCheckInterval = 30 * time.Second

// liveViolations runs the invariant checks that are valid while
// settlements are in flight — conservation of money in the ledger and
// non-negative balances. The commitment/exposure cross-check is
// quiescent-only (it false-positives mid-auction), so the probe skips
// it.
func liveViolations(exs ...*market.Exchange) []string {
	var out []string
	for _, ex := range exs {
		vs := invariant.CheckLedgerBalanced(ex.Ledger(), invariant.Eps)
		balances := make(map[string]float64)
		for _, team := range ex.Teams() {
			if b, err := ex.Balance(team); err == nil {
				balances[team] = b
			}
		}
		vs = append(vs, invariant.CheckBalancesNonNegative(balances, invariant.Eps)...)
		for _, v := range vs {
			out = append(out, v.String())
		}
	}
	return out
}

// healthLoop re-runs the live-safe invariant checks on a timer until
// ctx is cancelled, feeding /healthz. every <= 0 selects the default
// cadence.
func healthLoop(ctx context.Context, health *telemetry.Health, every time.Duration, exs ...*market.Exchange) {
	if every <= 0 {
		every = healthCheckInterval
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			health.RecordCheck(time.Now(), liveViolations(exs...))
		}
	}
}

// validateFlags rejects demo-world parameters that would panic or build
// a silently broken market.
func validateFlags(clusters, machines, regions, shards int, budget float64, epoch, lockWait time.Duration) error {
	if clusters < 1 {
		return fmt.Errorf("-clusters must be at least 1, got %d", clusters)
	}
	if machines < 1 {
		return fmt.Errorf("-machines must be at least 1, got %d", machines)
	}
	if budget <= 0 {
		return fmt.Errorf("-budget must be positive, got %g", budget)
	}
	if epoch < 0 {
		return fmt.Errorf("-epoch must not be negative, got %s", epoch)
	}
	if regions < 0 {
		return fmt.Errorf("-regions must not be negative, got %d", regions)
	}
	if regions == 1 {
		return errors.New("-regions needs at least 2 regions to federate (use 0 for a single exchange)")
	}
	if shards < 0 {
		return fmt.Errorf("-shards must not be negative, got %d", shards)
	}
	if lockWait < 0 {
		return fmt.Errorf("-lock-wait must not be negative, got %s", lockWait)
	}
	return nil
}

// Lock-retry backoff for -lock-wait: starts small so a normal restart
// race (the old process draining for under a second) resolves quickly,
// doubles to a cap so a long wait doesn't spin.
const (
	lockRetryBase = 50 * time.Millisecond
	lockRetryCap  = time.Second
)

// openJournal opens dir's journal, retrying for up to wait while
// another live process holds the directory flock — the
// restart-under-supervisor race where the previous marketd is still
// draining its journal. Any other error, or wait 0, fails immediately.
// On success it surfaces torn-tail truncation details in the log.
func openJournal(dir string, opts journal.Options, wait time.Duration) (*journal.Journal, *journal.Recovery, error) {
	deadline := time.Now().Add(wait)
	backoff := lockRetryBase
	for {
		j, rec, err := journal.Open(dir, opts)
		if err == nil {
			logRecoveryTruncation(dir, rec)
			return j, rec, nil
		}
		if !errors.Is(err, journal.ErrLocked) || wait <= 0 || time.Now().After(deadline) {
			return nil, nil, err
		}
		log.Printf("marketd: journal %s held by another process; retrying in %s", dir, backoff)
		time.Sleep(backoff)
		if backoff *= 2; backoff > lockRetryCap {
			backoff = lockRetryCap
		}
	}
}

// logRecoveryTruncation reports what a torn-tail truncation lost —
// the frame index and (best-effort) event kind of the first discarded
// record — so an operator learns *what* the crash cost, not just that
// bytes were cut.
func logRecoveryTruncation(dir string, rec *journal.Recovery) {
	if rec == nil || !rec.Truncated {
		return
	}
	kind := rec.TruncKind
	if kind == "" {
		kind = "undecodable"
	}
	log.Printf("marketd: journal %s: torn tail truncated (%s): discarded frame %d, %s event",
		dir, rec.TruncReason, rec.TruncFrame, kind)
}

// parseEngine maps the -engine flag onto the core engine selector.
func parseEngine(name string) (core.Engine, error) {
	switch name {
	case "incremental":
		return core.EngineIncremental, nil
	case "dense":
		return core.EngineDense, nil
	default:
		return 0, fmt.Errorf("unknown -engine %q (want incremental or dense)", name)
	}
}

// regionNames is the palette of demo region names; beyond it, regions
// are named g<i>.
var regionNames = []string{"us", "eu", "asia", "sam", "africa", "oceania", "india", "japan"}

func regionName(i int) string {
	if i < len(regionNames) {
		return regionNames[i]
	}
	return fmt.Sprintf("g%d", i+1)
}

// demoTeams are the funded accounts of the demo world.
var demoTeams = []string{"search", "ads", "maps", "mail", "storage"}

// buildRegionFleet assembles one region's clusters with the demo's
// hot/cold contrast: hot regions run mostly congested, others mostly
// idle with the occasional warm cluster.
func buildRegionFleet(rng *rand.Rand, prefix string, clusters, machines int, hot bool) (*cluster.Fleet, error) {
	fleet := cluster.NewFleet()
	for i := 1; i <= clusters; i++ {
		name := fmt.Sprintf("%sr%d", prefix, i)
		c := cluster.New(name, nil)
		c.AddMachines(machines, cluster.Usage{CPU: 32, RAM: 128, Disk: 20})
		if err := fleet.AddCluster(c); err != nil {
			return nil, err
		}
		// A hot region's first cluster always runs congested so the market
		// summary shows price contrast; a third of the rest join it. Cold
		// regions get the occasional warm cluster.
		var target cluster.Usage
		congested := hot && (i == 1 || rng.Float64() < 0.33)
		if !hot && i > 1 && rng.Float64() < 0.2 {
			congested = true
		}
		if congested {
			target = cluster.Usage{CPU: 0.85, RAM: 0.8, Disk: 0.8}
		} else {
			target = cluster.Usage{CPU: 0.25, RAM: 0.3, Disk: 0.2}
		}
		if err := fleet.FillToUtilization(rng, name, target); err != nil {
			return nil, err
		}
	}
	return fleet, nil
}

// noClose is the journal-less closer: nothing to flush.
func noClose() error { return nil }

// buildDemo assembles the single-exchange demo world. With journalDir
// set, the exchange journals every state change; if the directory holds
// a previous run's journal, the books are recovered from it instead of
// starting fresh (the world flags must match that run, since the fleet
// is rebuilt deterministically from the seed, not journaled). Recovery
// runs the shared invariant kernel before serving. The returned closer
// flushes and unlocks the journal on shutdown.
func buildDemo(clusters, machines int, seed int64, budget float64, engine core.Engine, partition core.PartitionMode, shards int, journalDir string, fsyncEvery int, lockWait time.Duration, fire *telemetry.Firehose) (*market.Exchange, func() error, error) {
	rng := rand.New(rand.NewSource(seed))
	fleet, err := buildRegionFleet(rng, "", clusters, machines, true)
	if err != nil {
		return nil, nil, err
	}
	cfg := market.Config{InitialBudget: budget, Engine: engine, Partition: partition, Shards: shards, Telemetry: fire}
	if journalDir == "" {
		ex, err := market.NewExchange(fleet, cfg)
		if err != nil {
			return nil, nil, err
		}
		return ex, noClose, openDemoAccounts(ex.OpenAccount)
	}
	// A directory locked by a live marketd refuses to open — startup
	// fails rather than interleaving two processes' writes in one WAL.
	// -lock-wait bounds a retry loop over exactly that refusal, for the
	// restart race where the old process is still draining.
	j, rec, err := openJournal(journalDir, journal.Options{FsyncEvery: fsyncEvery}, lockWait)
	if err != nil {
		return nil, nil, err
	}
	cfg.Journal = j
	if rec.Empty() {
		ex, err := market.NewExchange(fleet, cfg)
		if err != nil {
			j.Close()
			return nil, nil, err
		}
		log.Printf("marketd: journaling to %s (fsync every %d records)", journalDir, fsyncEvery)
		if err := openDemoAccounts(ex.OpenAccount); err != nil {
			j.Close()
			return nil, nil, err
		}
		return ex, j.Close, nil
	}
	// The demo accounts were journaled when they were first opened, so
	// recovery replays them — opening them again would double-book.
	ex, err := market.Recover(fleet, cfg, rec)
	if err != nil {
		j.Close()
		return nil, nil, fmt.Errorf("recovering %s: %w", journalDir, err)
	}
	if vs := invariant.CheckExchange(ex); len(vs) > 0 {
		j.Close()
		return nil, nil, fmt.Errorf("recovered books fail invariants (refusing to serve): %s", vs[0])
	}
	log.Printf("marketd: recovered %d auctions and %d teams from %s (snapshot seq %d, %d WAL records replayed)",
		len(ex.History()), len(ex.Teams()), journalDir, rec.SnapshotSeq, len(rec.Records))
	return ex, j.Close, nil
}

// openDemoAccounts funds the demo teams through the given opener.
func openDemoAccounts(open func(team string) error) error {
	for _, team := range demoTeams {
		if err := open(team); err != nil {
			return err
		}
	}
	return nil
}

// fedSnapshotEvery is the router journal's snapshot cadence (in
// settlements) for the federated demo.
const fedSnapshotEvery = 64

// buildFederatedDemo assembles N regional markets behind one federation.
// The first region runs hot and the rest cold, so the global view shows
// price contrast between regions and cross-region bids route away from
// the hot region. With journalDir set, each region journals its book to
// journalDir/<region> and the router journals routing state to
// journalDir/fed; a directory holding a previous run recovers every
// member to the same cut — all-or-nothing, since a half-recovered
// federation would desynchronize routing state from the regional books.
func buildFederatedDemo(regions, clusters, machines int, seed int64, budget float64, engine core.Engine, partition core.PartitionMode, shards int, journalDir string, fsyncEvery int, lockWait time.Duration, fire *telemetry.Firehose) (*federation.Federation, func() error, error) {
	rng := rand.New(rand.NewSource(seed))
	rs := make([]*federation.Region, 0, regions)
	var journals []*journal.Journal
	closeAll := func() error {
		var first error
		for _, j := range journals {
			if err := j.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	recovered := 0
	for i := 0; i < regions; i++ {
		name := regionName(i)
		fleet, err := buildRegionFleet(rng, name+"-", clusters, machines, i == 0)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		cfg := market.Config{InitialBudget: budget, Engine: engine, Partition: partition, Shards: shards, Telemetry: fire}
		var rec *journal.Recovery
		if journalDir != "" {
			var j *journal.Journal
			j, rec, err = openJournal(filepath.Join(journalDir, name), journal.Options{FsyncEvery: fsyncEvery}, lockWait)
			if err != nil {
				closeAll()
				return nil, nil, err
			}
			journals = append(journals, j)
			cfg.Journal = j
		}
		var r *federation.Region
		if rec != nil && !rec.Empty() {
			r, err = federation.RecoverRegion(name, fleet, cfg, rec)
			recovered++
		} else {
			r, err = federation.NewRegion(name, fleet, cfg)
		}
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		rs = append(rs, r)
	}
	fed, err := federation.NewFederation(rs...)
	if err != nil {
		closeAll()
		return nil, nil, err
	}
	fed.AttachTelemetry(fire)
	if journalDir != "" {
		fj, frec, err := openJournal(filepath.Join(journalDir, "fed"), journal.Options{FsyncEvery: fsyncEvery}, lockWait)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		journals = append(journals, fj)
		if !frec.Empty() {
			if err := fed.Restore(frec); err != nil {
				closeAll()
				return nil, nil, err
			}
			recovered++
		}
		fed.AttachJournal(fj, fedSnapshotEvery)
	}
	if recovered > 0 && recovered != regions+1 {
		closeAll()
		return nil, nil, fmt.Errorf("partial journal state in %s: %d of %d journals hold history (refusing a half-recovered federation)",
			journalDir, recovered, regions+1)
	}
	if recovered > 0 {
		if vs := invariant.CheckFederation(fed); len(vs) > 0 {
			closeAll()
			return nil, nil, fmt.Errorf("recovered federation fails invariants (refusing to serve): %s", vs[0])
		}
		log.Printf("marketd: recovered %d regions and routing state from %s", regions, journalDir)
		return fed, closeAll, nil
	}
	if err := openDemoAccounts(fed.OpenAccount); err != nil {
		closeAll()
		return nil, nil, err
	}
	if journalDir != "" {
		log.Printf("marketd: journaling %d regions and routing state under %s", regions, journalDir)
	}
	return fed, closeAll, nil
}
