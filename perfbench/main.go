// Command perfbench is the repository's end-to-end benchmark: it builds
// the market the way cmd/marketd does — webui.New over market.NewExchange
// with a journal and a telemetry firehose — drives one named workload
// with seeded inputs, checks the outputs, and prints one JSON result line.
//
//	perfbench -workload front-door -seed 1 -seconds 30 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics. With -trace 1
// the same workload runs twice in one process, untraced and then traced,
// and the result carries per-layer metrics taken by timing calls into
// each layer's public API from this package, plus the tracing overhead.
// See README.md for the workloads, the metrics and what each should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one named traffic mix.
type workload struct {
	name string
	run  func(r *run) error
}

// workloads lists BENCHMARK.json's workloads in its order, then
// long-uptime, which is run by hand: its figures follow the shared
// disk's fsync latency too closely to hold a regression bound (see
// README.md).
var workloads = []workload{
	{"front-door", runFrontDoor},
	{"planet-clear", runPlanetClear},
	{"long-uptime", runLongUptime},
}

// run is one pass of a workload: its inputs, the numbers it measured and
// the checks it failed.
type run struct {
	workload string
	seed     int64
	seconds  int
	dir      string // scratch space for journals, removed afterwards
	// tr is nil on an untraced pass.
	tr *tracer

	e2e, layer map[string]metric
	params     map[string]any
	// tails says which statistic each tail metric reports.
	tails     map[string]string
	writePins bool
	attempted int64
	failed    int64
	problems  []string
}

func newRun(name string, seed int64, seconds int, dir string, tr *tracer) *run {
	return &run{
		workload: name, seed: seed, seconds: seconds, dir: dir, tr: tr,
		e2e: map[string]metric{}, layer: map[string]metric{}, params: map[string]any{},
		tails: map[string]string{},
	}
}

// check records a failed correctness check.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *run) setE2E(name, unit string, v float64)   { r.e2e[name] = metric{v, unit} }
func (r *run) setLayer(name, unit string, v float64) { r.layer[name] = metric{v, unit} }

// setTail sets a per-layer tail metric from d and notes which
// percentile it is.
func (r *run) setTail(name, unit string, d dist) {
	r.layer[name] = metric{d.tail(), unit}
	r.tails[name] = tailName(len(d))
}

// traced reports whether this pass records per-layer numbers.
func (r *run) traced() bool { return r.tr != nil }

func main() {
	name := flag.String("workload", "", "workload: front-door, planet-clear or long-uptime")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 30, "run length; each workload sizes its fixed work from it")
	trace := flag.Int("trace", 0, "1 runs an untraced and a traced pass and reports per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for scratch journals, spans and run records")
	writePins := flag.Bool("write-pins", false, "planet-clear only: record this seed's outcomes in pins.json instead of checking them")
	flag.Parse()

	res, err := benchmark(*name, *seed, *seconds, *trace, *out, *writePins)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func benchmark(name string, seed int64, seconds, trace int, out string, writePins bool) (*result, error) {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 || seconds > 600 {
		return nil, fmt.Errorf("-seconds must be in [1, 600], got %d", seconds)
	}
	if trace != 0 && trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(out, "work-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	pass := func(tr *tracer, sub string) (*run, error) {
		dir := filepath.Join(work, sub)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		r := newRun(name, seed, seconds, dir, tr)
		r.writePins = writePins
		if err := wl.run(r); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		for _, p := range r.problems {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: check failed: %s\n", name, seed, p)
		}
		return r, nil
	}

	plain, err := pass(nil, "plain")
	if err != nil {
		return nil, err
	}
	if err := conform(plain.e2e, endToEnd); err != nil {
		return nil, err
	}
	res := &result{
		Correct:   len(plain.problems) == 0,
		Attempted: plain.attempted,
		Failed:    plain.failed,
		Metrics:   plain.e2e,
	}
	final := plain
	if trace == 1 {
		runtime.GC()
		tr := newTracer()
		traced, err := pass(tr, "traced")
		if err != nil {
			return nil, err
		}
		traced.setLayer("trace.overhead_share", "share", overhead(plain, traced))
		for _, name := range unbounded {
			traced.layer[name] = plain.layer[name]
			if tail, ok := plain.tails[name]; ok {
				traced.tails[name] = tail
			}
		}
		traced.setLayer("failed_share", "share", ratio(float64(traced.failed), float64(traced.attempted)))
		if err := conform(traced.layer, perLayer); err != nil {
			return nil, err
		}
		spans, err := tr.write(filepath.Join(out, "spans"), name, seed)
		if err != nil {
			return nil, err
		}
		traced.params["spans_file"] = spans
		res = &result{
			Correct:   len(plain.problems) == 0 && len(traced.problems) == 0,
			Attempted: traced.attempted,
			Failed:    traced.failed,
			Metrics:   traced.layer,
		}
		final = traced
	}
	rec := record(final, trace, res)
	if err := writeRecord(out, rec); err != nil {
		return nil, err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	fmt.Println(string(line))
	return res, nil
}

// overhead is how much tracing slowed the timed operations: the median,
// over the submit, poll and clear medians, of the traced pass's figure
// over the untraced pass's, minus one.
func overhead(plain, traced *run) float64 {
	var shifts []float64
	for _, name := range []string{"submit_p50_ms", "poll_p50_ms", "clear_p50_ms"} {
		shifts = append(shifts, ratio(traced.e2e[name].Value, plain.e2e[name].Value)-1)
	}
	return median(shifts)
}

// runRecord is what one invocation writes next to its result: enough to
// say what was measured and on what.
type runRecord struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Trace      int               `json:"trace"`
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Commit     string            `json:"commit"`
	Params     map[string]any    `json:"params"`
	Problems   []string          `json:"problems,omitempty"`
	Result     *result           `json:"result"`
	Time       string            `json:"time"`
	Tails      map[string]string `json:"tails,omitempty"`
}

func record(r *run, trace int, res *result) *runRecord {
	return &runRecord{
		Workload:   r.workload,
		Seed:       r.seed,
		Seconds:    r.seconds,
		Trace:      trace,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Params:     r.params,
		Problems:   r.problems,
		Result:     res,
		Time:       time.Now().UTC().Format(time.RFC3339),
		Tails:      r.tails,
	}
}

// writeRecord appends the record to <out>/records.jsonl.
func writeRecord(out string, rec *runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(out, "records.jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// commit names the source under test: the git HEAD when the checkout is
// a repository, otherwise a digest of its Go sources.
func commit() string {
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if after, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(".git", after)); err == nil {
				return strings.TrimSpace(string(id))
			}
		}
		return ref
	}
	return "tree:" + sourceDigest()
}

// sourceDigest hashes the checkout's Go sources and module files, so
// a record made outside a git repository still names what it measured.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
