package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"clustermarket/internal/core"
	"clustermarket/internal/journal"
	"clustermarket/internal/market"
	"clustermarket/internal/resource"
)

// span is one timed call at a layer boundary. Parent is the span that
// caused it (0 for none); spans of one request or tick share a Parent
// chain rooted at the client-side span.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory, plus the per-layer samples the timing
// wrappers take, until the pass ends.
type tracer struct {
	t0   time.Time
	next atomic.Uint64

	// mu guards the spans and the samples that the journal and handler
	// wrappers add from the goroutines they run on.
	mu            sync.Mutex
	spans         []span
	fsync         dist // WAL fsyncs, ms
	snapStart     time.Time
	snapBytes     int64
	snapshots     dist // snapshot spans, ms
	lastSnapMB    float64
	handlerSubmit dist
	handlerPoll   dist
	pollBytes     int64
	non2xx        int

	walBytes, walSyncs, snapCount atomic.Int64
	// handlerNs holds each request's handler time, by request number.
	handlerNs []atomic.Int64

	// Written only by the goroutine that ticks the loop.
	reserve, build, clock, settle dist
	rounds, comps, batch          dist
	mismatches, excluded          int

	// Admission timed from a single goroutine.
	marketSubmitUs    dist
	marketSubmitAlloc float64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id allocates a span id.
func (t *tracer) id() uint64 { return t.next.Add(1) }

// add records a finished span under a pre-allocated id.
func (t *tracer) add(id, parent uint64, name string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// record adds a span with a fresh id and returns the id.
func (t *tracer) record(parent uint64, name string, start, end time.Time) uint64 {
	id := t.id()
	t.add(id, parent, name, start, end)
	return id
}

// write stores the spans as JSON lines under dir and returns the file.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// ---------------------------------------------------------------------
// journal: a timing journal.FS passed in journal.Options.FS.
// ---------------------------------------------------------------------

// timingFS times the journal's disk calls: WAL writes and fsyncs, and
// the snapshot's span from creating its temporary file to installing the
// rotated WAL. Bytes, results and errors pass through unchanged.
type timingFS struct {
	journal.FS
	t *tracer
}

func (f timingFS) OpenFile(name string, flag int, perm os.FileMode) (journal.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: file, t: f.t, wal: true}, nil
}

// Creating the snapshot's temporary file starts a snapshot; installing
// the rotated WAL after it ends one.
func (f timingFS) Create(name string) (journal.File, error) {
	snapshot := filepath.Base(name) == "snapshot.json.tmp"
	if snapshot {
		f.t.mu.Lock()
		f.t.snapStart = time.Now()
		f.t.snapBytes = 0
		f.t.mu.Unlock()
	}
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: file, t: f.t, snapshot: snapshot}, nil
}

func (f timingFS) Rename(oldpath, newpath string) error {
	err := f.FS.Rename(oldpath, newpath)
	if err != nil || filepath.Base(oldpath) != "wal.tmp" || filepath.Base(newpath) != "wal" {
		return err
	}
	t := f.t
	end := time.Now()
	t.mu.Lock()
	start := t.snapStart
	t.snapStart = time.Time{}
	if !start.IsZero() {
		t.snapshots.addDur(end.Sub(start))
		t.lastSnapMB = float64(t.snapBytes) / 1e6
	}
	t.mu.Unlock()
	if !start.IsZero() {
		t.record(0, "journal.snapshot", start, end)
		t.snapCount.Add(1)
	}
	return nil
}

// timingFile times one journal file's writes and fsyncs.
type timingFile struct {
	journal.File
	t        *tracer
	wal      bool
	snapshot bool
}

func (f *timingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	switch {
	case f.wal:
		f.t.walBytes.Add(int64(n))
	case f.snapshot:
		f.t.mu.Lock()
		f.t.snapBytes += int64(n)
		f.t.mu.Unlock()
	}
	return n, err
}

func (f *timingFile) Sync() error {
	if !f.wal {
		return f.File.Sync()
	}
	start := time.Now()
	err := f.File.Sync()
	end := time.Now()
	f.t.walSyncs.Add(1)
	f.t.mu.Lock()
	f.t.fsync.addDur(end.Sub(start))
	f.t.mu.Unlock()
	f.t.record(0, "journal.fsync", start, end)
	return err
}

// ---------------------------------------------------------------------
// webui: an http.Handler around webui.Server.
// ---------------------------------------------------------------------

// reqHeader carries the client's request index, so the handler time can
// be subtracted from the client's round trip.
const reqHeader = "X-Perfbench-Req"

// timedHandler times the wrapped handler per request and counts status
// codes and response bytes.
type timedHandler struct {
	h http.Handler
	t *tracer
}

type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *countingWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (h timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	h.h.ServeHTTP(cw, r)
	end := time.Now()
	d := end.Sub(start)
	t := h.t
	var parent uint64
	if i, err := strconv.Atoi(r.Header.Get(reqHeader)); err == nil && i >= 0 && i < len(t.handlerNs) {
		t.handlerNs[i].Store(d.Nanoseconds())
		parent = clientSpan(i)
	}
	name := "webui.submit"
	t.mu.Lock()
	// A handler that writes nothing answers 200.
	if cw.status != 0 && (cw.status < 200 || cw.status > 299) {
		t.non2xx++
	}
	if r.Method == http.MethodPost {
		t.handlerSubmit.addDur(d)
	} else {
		name = "webui.poll"
		t.handlerPoll.addDur(d)
		t.pollBytes += cw.bytes
	}
	t.mu.Unlock()
	t.record(parent, name, start, end)
}

// ---------------------------------------------------------------------
// market, reserve, core: the auction rebuilt from outside.
// ---------------------------------------------------------------------

// split is one tick's batch cleared from outside the exchange, timed per
// layer: the open book plus the operator's supply, priced by
// Exchange.ReservePrices and cleared by core.NewAuction and Auction.Run
// with the exchange's default configuration.
type split struct {
	batch                 int
	reserve, build, clock time.Duration
	rounds, components    int
	prices                resource.Vector
	start                 time.Time
}

// outside rebuilds the batch the next RunAuction will claim and clears it.
// It returns nil when the book is empty.
func outside(ex *market.Exchange) (*split, error) {
	open := ex.OpenOrders()
	if len(open) == 0 {
		return nil, nil
	}
	reg := ex.Registry()
	bids := make([]*core.Bid, 0, len(open)+len(reg.Clusters()))
	for _, o := range open {
		bids = append(bids, o.Bid)
	}
	free := ex.Fleet().FreeVector(reg)
	for _, c := range reg.Clusters() {
		var supply resource.Vector
		for _, i := range reg.ClusterPools(c) {
			if q := free[i] * marketable; q > 0 {
				if supply == nil {
					supply = reg.Zero()
				}
				supply[i] = -q
			}
		}
		if supply != nil {
			bids = append(bids, &core.Bid{User: market.OperatorAccount, Bundles: []resource.Vector{supply}, Limit: -0.000001})
		}
	}
	s := &split{batch: len(open), start: time.Now()}
	t0 := s.start
	start, err := ex.ReservePrices()
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	a, err := core.NewAuction(reg, bids, core.Config{Start: start})
	if err != nil {
		return nil, err
	}
	s.components = a.Components()
	t2 := time.Now()
	res, err := a.Run()
	t3 := time.Now()
	if res == nil {
		return nil, err
	}
	s.reserve, s.build, s.clock = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	s.rounds, s.prices = res.Rounds, res.Prices
	return s, nil
}

// tickSplit attributes one tick: the outside clear s (nil for an empty
// book) against the exchange's own record of the same tick. A batch that
// changed between the rebuild and the claim (a submit landed in between)
// is excluded and counted; otherwise the prices must be bit-equal.
func (t *tracer) tickSplit(s *split, rec *market.AuctionRecord, tickStart, tickEnd time.Time) {
	if s == nil || rec == nil {
		return
	}
	if rec.Submitted != s.batch {
		t.excluded++
		return
	}
	if !bitEqual(s.prices, rec.Prices) {
		t.mismatches++
	}
	tick := tickEnd.Sub(tickStart)
	t.reserve.addDur(s.reserve)
	t.build.addDur(s.build)
	t.clock.addDur(s.clock)
	t.settle.addDur(max(0, tick-s.reserve-s.build-s.clock))
	t.rounds.add(float64(s.rounds))
	t.comps.add(float64(s.components))
	t.batch.add(float64(s.batch))
	epoch := t.record(0, "epoch", s.start, tickEnd)
	t.record(epoch, "market.tick", tickStart, tickEnd)
	o := t.record(epoch, "outside.clear", s.start, s.start.Add(s.reserve+s.build+s.clock))
	t.record(o, "reserve.prices", s.start, s.start.Add(s.reserve))
	t.record(o, "core.build", s.start.Add(s.reserve), s.start.Add(s.reserve+s.build))
	t.record(o, "core.clock", s.start.Add(s.reserve+s.build), s.start.Add(s.reserve+s.build+s.clock))
}

func bitEqual(a, b resource.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// report sets the per-layer metrics the tracer measured. orders is the
// number of orders the exchange admitted; results are the client's
// HTTP exchanges by request index (nil without HTTP traffic).
func (t *tracer) report(r *run, orders float64, results []exchange) {
	var transport dist
	for i, x := range results {
		if x.rtt <= 0 {
			continue
		}
		name := "client.poll"
		if x.order >= 0 {
			name = "client.submit"
		}
		t.add(clientSpan(i), 0, name, x.start, x.start.Add(x.rtt))
		if h := t.handlerNs[i].Load(); h > 0 {
			transport.addDur(x.rtt - time.Duration(h))
		}
	}
	r.setLayer("webui.submit_ms.p50", "ms", t.handlerSubmit.p50())
	r.setTail("webui.submit_ms.tail", "ms", t.handlerSubmit)
	r.setLayer("webui.poll_ms.p50", "ms", t.handlerPoll.p50())
	r.setTail("webui.poll_ms.tail", "ms", t.handlerPoll)
	r.setLayer("webui.poll_bytes", "bytes", ratio(float64(t.pollBytes), float64(len(t.handlerPoll))))
	r.setLayer("webui.non2xx", "count", float64(t.non2xx))
	r.setLayer("http.transport_ms.p50", "ms", transport.p50())

	r.setLayer("market.submit_us.p50", "us", t.marketSubmitUs.p50())
	r.setTail("market.submit_us.tail", "us", t.marketSubmitUs)
	r.setLayer("market.submit_allocs", "count", t.marketSubmitAlloc)
	r.setLayer("market.settle_ms.p50", "ms", t.settle.p50())
	r.setLayer("market.batch_orders.p50", "count", t.batch.p50())

	r.setLayer("reserve.prices_ms.p50", "ms", t.reserve.p50())
	r.setLayer("core.build_ms.p50", "ms", t.build.p50())
	r.setLayer("core.clock_ms.p50", "ms", t.clock.p50())
	r.setLayer("core.rounds.p50", "count", t.rounds.p50())
	r.setLayer("core.components.p50", "count", t.comps.p50())

	r.setLayer("journal.fsync_ms.p50", "ms", t.fsync.p50())
	r.setTail("journal.fsync_ms.tail", "ms", t.fsync)
	r.setLayer("journal.fsyncs_per_order", "count", ratio(float64(t.walSyncs.Load()), orders))
	r.setLayer("journal.bytes_per_order", "bytes", ratio(float64(t.walBytes.Load()), orders))
	r.setLayer("journal.snapshot_ms.p50", "ms", t.snapshots.p50())
	r.setLayer("journal.snapshot_mb.last", "MB", t.lastSnapMB)

	r.setLayer("trace.mismatches", "count", float64(t.mismatches))
	r.setLayer("trace.excluded_ticks", "count", float64(t.excluded))
	r.check(t.mismatches == 0, "%d ticks cleared to prices that differ from the outside rebuild of their batch", t.mismatches)
}

// clientSpan is the span id of client request i; the handler wrapper
// derives the same id from the request header to parent its span.
func clientSpan(i int) uint64 { return 1<<40 + uint64(i) }
