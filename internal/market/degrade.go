package market

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Degraded quiesce: the exchange's typed response to a disk that stops
// persisting. The contract is that the exchange never acknowledges
// state it cannot persist — a journal append that fails (after the
// journal has rolled the WAL back to its pre-append length) means the
// event was not applied, the caller got an error, and the exchange
// moves into degraded quiesce:
//
//   - New orders are rejected at the door with ErrDegraded, a retryable
//     error: nothing is lost, the client simply resubmits once the disk
//     heals. The check is one atomic load and a branch on the submit
//     hot path (see rejectIfDegraded), so a healthy exchange pays
//     branch-prediction noise for it.
//   - In-flight settlement is all or nothing: the auction's events are
//     journaled as one batch, so a batch that cannot be persisted
//     settles no order — the whole claimed batch is released back to
//     Open, no auction record is written, and the next clock reuses the
//     number. Replaying the journal reproduces the live books
//     bit-for-bit.
//   - Each failed append is retried inline a bounded number of times
//     with exponential backoff (appendWithRetry), with a journal Probe
//     — torn-tail repair plus an fsync round trip — between attempts,
//     so a transient burst of ENOSPC/EIO heals invisibly and only a
//     persistently sick disk quiesces the exchange.
//   - Recovery is automatic: RunAuction probes on entry (subject to the
//     same exponential backoff) and TryResume(true) forces a probe, so
//     the exchange resumes as soon as the disk accepts a write-sync
//     round trip again. Entering and leaving quiesce publish
//     telemetry-only events (never journaled: replay must not see
//     operational weather).
var ErrDegraded = errors.New("market: degraded — journal unavailable, retry later")

const (
	// maxAppendRetries bounds the inline append retries before the
	// exchange gives up and quiesces; with the doubling backoff below the
	// worst case adds ~15ms to the failing call.
	maxAppendRetries = 4
	appendRetryBase  = time.Millisecond

	// Resume probes back off exponentially from base to cap while the
	// disk stays sick, so a dead volume costs one fsync attempt per
	// backoff window, not per rejected request.
	resumeBackoffBase = 50 * time.Millisecond
	resumeBackoffCap  = 5 * time.Second
)

// rejectIfDegraded is the submit-path fault-seam check: one atomic load
// and a predictable branch (BenchmarkEpochLoopDegradedCheck pins it at
// zero allocations).
//
//marketlint:allocfree
func (e *Exchange) rejectIfDegraded() error {
	if e.degraded.flag.Load() {
		return ErrDegraded
	}
	return nil
}

// enterDegraded moves the exchange into degraded quiesce (idempotent —
// only the first caller of an episode records it). Safe to call with
// stripe locks held: the degrade mutex is an unranked leaf and the
// telemetry publish is non-blocking.
func (e *Exchange) enterDegraded(cause error) {
	if !e.degraded.flag.CompareAndSwap(false, true) {
		return
	}
	now := time.Now()
	d := &e.degraded
	d.mu.Lock()
	d.since = now
	d.cause = cause.Error()
	d.attempts = 0
	d.nextProbe = now // the first resume probe may run immediately
	d.entered++
	d.mu.Unlock()
	if e.fire.Active() {
		e.fire.Publish(EventSource, EvDegradedEntered, &Event{Kind: EvDegradedEntered, Memo: cause.Error()})
	}
}

// TryResume attempts to leave degraded quiesce by probing the journal:
// torn-tail repair plus a forced fsync round trip. Unforced probes are
// rate-limited by the exponential backoff schedule; force bypasses the
// schedule (the deterministic path scenario backends use, and the right
// call for an operator poking a healed disk). Returns nil when the
// exchange is healthy — including when it was never degraded.
func (e *Exchange) TryResume(force bool) error {
	if !e.degraded.flag.Load() {
		return nil
	}
	d := &e.degraded
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.flag.Load() { // lost the race to another resumer; already healthy
		return nil
	}
	if !force && time.Now().Before(d.nextProbe) {
		return ErrDegraded
	}
	if e.journal != nil {
		if err := e.journal.Probe(); err != nil {
			d.attempts++
			shift := d.attempts - 1
			if shift > 7 {
				shift = 7
			}
			backoff := resumeBackoffBase << uint(shift)
			if backoff > resumeBackoffCap {
				backoff = resumeBackoffCap
			}
			d.nextProbe = time.Now().Add(backoff)
			return err
		}
	}
	d.accumNanos += time.Since(d.since).Nanoseconds()
	d.exited++
	d.cause = ""
	d.flag.Store(false)
	if e.fire.Active() {
		e.fire.Publish(EventSource, EvDegradedExited, &Event{Kind: EvDegradedExited})
	}
	return nil
}

// appendWithRetry is the bounded inline heal loop under journalEvents:
// a failed journal batch (already rolled back by the journal) is
// retried after a Probe — repair plus fsync — with doubling backoff, so
// a transient fault burst delays the operation by milliseconds instead
// of failing it. The final error, if any, is the last append's.
func (e *Exchange) appendWithRetry(raws [][]byte) error {
	_, err := e.journal.AppendBatch(raws)
	if err == nil {
		return nil
	}
	backoff := appendRetryBase
	for attempt := 0; attempt < maxAppendRetries; attempt++ {
		time.Sleep(backoff)
		backoff *= 2
		// Probe repairs any torn tail and tests the disk; its error is
		// not decisive — the retried append below is the real verdict.
		_ = e.journal.Probe()
		if _, err = e.journal.AppendBatch(raws); err == nil {
			return nil
		}
	}
	return err
}

// degradeState carries the quiesce lifecycle. flag is the hot-path
// bit; everything else sits behind an unranked leaf mutex touched only
// on degrade transitions and status reads.
type degradeState struct {
	flag atomic.Bool
	mu   sync.Mutex
	// since anchors the current episode; accumNanos sums completed ones.
	since      time.Time
	cause      string
	attempts   int
	nextProbe  time.Time
	accumNanos int64
	entered    uint64
	exited     uint64
}

// DegradedStatus is the externally visible quiesce state, shaped for
// the /healthz JSON body and /metrics series.
type DegradedStatus struct {
	Degraded bool   `json:"degraded"`
	Cause    string `json:"cause,omitempty"`
	// Entered and Exited count quiesce episodes; SecondsTotal is the
	// cumulative time spent degraded, including the current episode.
	Entered      uint64  `json:"entered"`
	Exited       uint64  `json:"exited"`
	SecondsTotal float64 `json:"seconds_total"`
}

// Degraded reports whether the exchange is currently in degraded
// quiesce.
func (e *Exchange) Degraded() bool { return e.degraded.flag.Load() }

// DegradedStatus snapshots the quiesce lifecycle counters.
func (e *Exchange) DegradedStatus() DegradedStatus {
	d := &e.degraded
	d.mu.Lock()
	defer d.mu.Unlock()
	st := DegradedStatus{
		Degraded:     d.flag.Load(),
		Cause:        d.cause,
		Entered:      d.entered,
		Exited:       d.exited,
		SecondsTotal: float64(d.accumNanos) / 1e9,
	}
	if st.Degraded {
		st.SecondsTotal += time.Since(d.since).Seconds()
	}
	return st
}
