package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"clustermarket/internal/journal"
)

func TestTailRule(t *testing.T) {
	series := func(n int) dist {
		d := make(dist, n)
		for i := range d {
			d[i] = float64(n - i) // n, n-1, …, 1: order must not matter
		}
		return d
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{3, 3}, {19, 19}, {20, 10}, {1000, 990}, {1999, 1989}} {
		if got := series(c.n).tail(); got != c.want {
			t.Errorf("tail of 1..%d = %g, want %g", c.n, got, c.want)
		}
	}
	// Ten samples lie beyond every reported tail.
	for n := 20; n <= 3000; n += 7 {
		d := series(n)
		tail, beyond := d.tail(), 0
		for _, v := range d {
			if v > tail {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Fatalf("n=%d: %d samples beyond the tail, want %d", n, beyond, tailBeyond)
		}
	}
	if got := tailPercentile(1000); got != 0.99 {
		t.Errorf("tailPercentile(1000) = %g, want 0.99", got)
	}
	if got := tailPercentile(19); got != 1 {
		t.Errorf("tailPercentile(19) = %g, want 1 (the maximum)", got)
	}
	if got := series(1999).quantile(0.5); got != 1000 {
		t.Errorf("median of 1..1999 = %g, want 1000", got)
	}
}

// TestSegmentedMedian checks that a median is the median of the run's
// segment medians, so a burst confined to one segment does not move it.
func TestSegmentedMedian(t *testing.T) {
	m := make(dist, 10000)
	for i := range m {
		m[i] = float64(i % 20) // each 100-sample segment has median 9
	}
	for i := 0; i < 100; i++ {
		m[i] = 1e6 // a burst in the first segment
	}
	if got := m.p50(); got != 9 {
		t.Errorf("p50 = %g, want 9: the burst must not move the median segment's median", got)
	}
	if got := (dist{5, 1, 3}).p50(); got != 3 {
		t.Errorf("p50 of three samples = %g, want 3", got)
	}
	for _, c := range []struct {
		n    int
		want string
	}{{1000, "p99 of 1000"}, {200, "p95 of 200"}, {12, "max of 12"}} {
		if got := tailName(c.n); got != c.want {
			t.Errorf("tailName(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

// TestOpenLoopChargesDueTime checks the open-loop rule: a request is
// timed from when it was due, so one stalled request charges its wait to
// every request queued behind it.
func TestOpenLoopChargesDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	gap := time.Millisecond
	start := time.Now().Add(5 * time.Millisecond)
	outs := openLoop(context.Background(), start, gap, 20, 1, func(i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if len(outs) != 20 {
		t.Fatalf("%d outcomes, want 20", len(outs))
	}
	for i, o := range outs {
		if !o.sent {
			t.Fatalf("request %d not sent", i)
		}
		// Request i was due i·gap after request 0 but could only start
		// once the stall ended.
		if want := stall - time.Duration(i)*gap; o.latency < want {
			t.Errorf("request %d: latency %v, want at least %v", i, o.latency, want)
		}
		if i > 0 {
			if want := stall - time.Duration(i)*gap; o.late < want {
				t.Errorf("request %d: sent %v late, want at least %v", i, o.late, want)
			}
		}
	}
}

func TestOpenLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	done := make(chan []outcome)
	go func() {
		done <- openLoop(ctx, start, 5*time.Millisecond, -1, 1, func(int) error { return nil })
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case outs := <-done:
		if len(outs) == 0 {
			t.Fatal("no requests sent before cancel")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("openLoop did not stop after cancel")
	}
}

// TestTimingFSPassesThrough runs the same journal history through the
// plain filesystem and through timingFS: the files must come out
// byte-identical, and the timing FS must have seen the traffic.
func TestTimingFSPassesThrough(t *testing.T) {
	history := func(dir string, opts journal.Options) {
		j, _, err := journal.Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if _, err := j.Append([]byte(`{"n":` + string(rune('a'+i)) + `}`)); err != nil {
				t.Fatal(err)
			}
			if i == 9 {
				if err := j.Snapshot([]byte(`{"state":"half"}`)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	plain, timed := t.TempDir(), t.TempDir()
	history(plain, journal.Options{})
	tr := newTracer()
	history(timed, journal.Options{FS: timingFS{FS: journal.OSFS(), t: tr}})
	for _, name := range []string{"wal", "snapshot.json"} {
		a, err := os.ReadFile(filepath.Join(plain, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(timed, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs through the timing FS", name)
		}
	}
	if tr.walSyncs.Load() < 20 || len(tr.fsync) != int(tr.walSyncs.Load()) {
		t.Errorf("timing FS saw %d WAL fsyncs (%d timed), want at least 20", tr.walSyncs.Load(), len(tr.fsync))
	}
	if tr.snapCount.Load() != 1 || tr.lastSnapMB <= 0 {
		t.Errorf("timing FS saw %d snapshots of %g MB, want 1 non-empty", tr.snapCount.Load(), tr.lastSnapMB)
	}
}

var errDisk = errors.New("disk on fire")

// failFS fails every call with errDisk; its files report short writes.
type failFS struct{ journal.FS }

func (failFS) OpenFile(string, int, os.FileMode) (journal.File, error) { return nil, errDisk }
func (failFS) Create(string) (journal.File, error)                     { return nil, errDisk }
func (failFS) Rename(string, string) error                             { return errDisk }

type failFile struct{}

func (failFile) Write(p []byte) (int, error) { return len(p) / 2, errDisk }
func (failFile) Sync() error                 { return errDisk }
func (failFile) Close() error                { return errDisk }

func TestTimingFSPassesErrors(t *testing.T) {
	fs := timingFS{FS: failFS{journal.OSFS()}, t: newTracer()}
	if _, err := fs.OpenFile("wal", os.O_WRONLY, 0o644); err != errDisk {
		t.Errorf("OpenFile error %v, want errDisk", err)
	}
	if _, err := fs.Create("snapshot.json.tmp"); err != errDisk {
		t.Errorf("Create error %v, want errDisk", err)
	}
	if err := fs.Rename("wal.tmp", "wal"); err != errDisk {
		t.Errorf("Rename error %v, want errDisk", err)
	}
	for _, f := range []*timingFile{
		{File: failFile{}, t: fs.t, wal: true},
		{File: failFile{}, t: fs.t, snapshot: true},
	} {
		if n, err := f.Write(make([]byte, 10)); n != 5 || err != errDisk {
			t.Errorf("Write = %d, %v; want 5, errDisk", n, err)
		}
		if err := f.Sync(); err != errDisk {
			t.Errorf("Sync error %v, want errDisk", err)
		}
		if err := f.Close(); err != errDisk {
			t.Errorf("Close error %v, want errDisk", err)
		}
	}
}

// TestBenchmarkJSONMatchesDeclarations keeps BENCHMARK.json, which the
// runner reads, in step with the metrics and workloads declared here.
func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) > len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, w.Name, workloads[i].name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if s := endToEnd[i]; m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("end_to_end %d: %+v in BENCHMARK.json, %+v here", i, m, s)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if s := perLayer[i]; m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("per_layer %d: %+v in BENCHMARK.json, %+v here", i, m, s)
		}
	}
}

func TestConform(t *testing.T) {
	want := []spec{{"a_ms", "ms", "lower"}, {"b", "count", "higher"}}
	if err := conform(map[string]metric{"a_ms": {1, "ms"}, "b": {2, "count"}}, want); err != nil {
		t.Errorf("matching metrics: %v", err)
	}
	for _, got := range []map[string]metric{
		{"a_ms": {1, "ms"}},
		{"a_ms": {1, "s"}, "b": {2, "count"}},
		{"a_ms": {1, "ms"}, "b": {2, "count"}, "c": {3, "ms"}},
	} {
		if err := conform(got, want); err == nil {
			t.Errorf("conform(%v) accepted a mismatch", got)
		}
	}
}

// TestPinsCatchDrift checks that a pinned seed's recorded outcomes pass
// and that any drift from them fails the run.
func TestPinsCatchDrift(t *testing.T) {
	pins, err := loadPins(pinsJSON)
	if err != nil {
		t.Fatal(err)
	}
	want, ok := pins["1"]
	if !ok || len(want) == 0 {
		t.Fatal("seed 1 has no pins")
	}
	r := newRun("planet-clear", 1, 20, t.TempDir(), nil)
	checkPins(r, want)
	if len(r.problems) != 0 {
		t.Fatalf("pinned outcomes rejected: %v", r.problems)
	}
	drifted := append([]pin(nil), want...)
	drifted[len(drifted)-1].Rounds++
	checkPins(r, drifted)
	if len(r.problems) != 1 {
		t.Fatalf("a drifted epoch gave %d problems, want 1", len(r.problems))
	}
}
