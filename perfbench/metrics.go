package main

import (
	"fmt"
	"strings"
)

// spec declares one reported metric. BENCHMARK.json lists the same
// names, units and directions; a test keeps the two in step.
type spec struct {
	name, unit, better string
}

// endToEnd are the numbers a user of the market sees. Every workload
// reports every one of them on an untraced pass.
var endToEnd = []spec{
	{"submit_p50_ms", "ms", "lower"},
	{"poll_p50_ms", "ms", "lower"},
	{"clear_p50_ms", "ms", "lower"},
	{"settled_per_s", "1/s", "higher"},
	{"heap_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// unbounded are end-to-end figures whose run-to-run spread on a shared
// machine is wider than any regression bound may be: the tails, and
// the restart time. They are reported without a bound among the
// per-layer metrics of a traced run, taken from its untraced pass.
var unbounded = []string{"submit_tail_ms", "poll_tail_ms", "clear_tail_ms", "recover_s"}

// perLayer are the unbounded end-to-end figures, then the traced pass's
// numbers, timed from outside each layer's public API. A layer a
// workload does not exercise reports 0.
var perLayer = []spec{
	{"submit_tail_ms", "ms", "lower"},
	{"poll_tail_ms", "ms", "lower"},
	{"clear_tail_ms", "ms", "lower"},
	{"recover_s", "s", "lower"},
	{"webui.submit_ms.p50", "ms", "lower"},
	{"webui.submit_ms.tail", "ms", "lower"},
	{"webui.poll_ms.p50", "ms", "lower"},
	{"webui.poll_ms.tail", "ms", "lower"},
	{"webui.poll_bytes", "bytes", "lower"},
	{"webui.non2xx", "count", "lower"},
	{"http.transport_ms.p50", "ms", "lower"},
	{"market.submit_us.p50", "us", "lower"},
	{"market.submit_us.tail", "us", "lower"},
	{"market.submit_allocs", "count", "lower"},
	{"market.settle_ms.p50", "ms", "lower"},
	{"market.batch_orders.p50", "count", "higher"},
	{"market.won_share", "share", "higher"},
	{"market.rejected", "count", "lower"},
	{"market.heap_kb_per_order", "KB", "lower"},
	{"market.replay_s", "s", "lower"},
	{"reserve.prices_ms.p50", "ms", "lower"},
	{"core.build_ms.p50", "ms", "lower"},
	{"core.clock_ms.p50", "ms", "lower"},
	{"core.rounds.p50", "count", "lower"},
	{"core.components.p50", "count", "higher"},
	{"journal.fsync_ms.p50", "ms", "lower"},
	{"journal.fsync_ms.tail", "ms", "lower"},
	{"journal.fsyncs_per_order", "count", "lower"},
	{"journal.bytes_per_order", "bytes", "lower"},
	{"journal.snapshot_ms.p50", "ms", "lower"},
	{"journal.snapshot_tick_ms.p50", "ms", "lower"},
	{"journal.snapshot_mb.last", "MB", "lower"},
	{"journal.open_s", "s", "lower"},
	{"journal.records_replayed", "count", "lower"},
	{"telemetry.events_per_order", "count", "lower"},
	{"telemetry.dropped_share", "share", "lower"},
	{"invariant.live_check_ms.first", "ms", "lower"},
	{"invariant.live_check_ms.last", "ms", "lower"},
	{"invariant.full_check_ms", "ms", "lower"},
	{"loadgen.late_ms.tail", "ms", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms.tail", "ms", "lower"},
	{"trace.overhead_share", "share", "lower"},
	{"trace.mismatches", "count", "lower"},
	{"trace.excluded_ticks", "count", "lower"},
	{"failed_share", "share", "lower"},
}

// conform checks that got holds exactly the declared metrics with their
// units. A difference is a bug in the benchmark, not a measurement.
func conform(got map[string]metric, want []spec) error {
	var problems []string
	for _, s := range want {
		m, ok := got[s.name]
		switch {
		case !ok:
			problems = append(problems, "missing "+s.name)
		case m.Unit != s.unit:
			problems = append(problems, fmt.Sprintf("%s in %s, declared %s", s.name, m.Unit, s.unit))
		}
	}
	if len(got) != len(want) {
		known := map[string]bool{}
		for _, s := range want {
			known[s.name] = true
		}
		for name := range got {
			if !known[name] {
				problems = append(problems, "undeclared "+name)
			}
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("metrics do not match their declaration: %s", strings.Join(problems, "; "))
	}
	return nil
}
