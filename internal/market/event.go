package market

import (
	"encoding/json"
	"fmt"

	"clustermarket/internal/core"
	"clustermarket/internal/resource"
)

// Event kinds. Every externally visible state change of an Exchange is
// materialized as exactly one of these before it is applied, so the
// journal's record stream is a complete, replayable account of the
// books. Events record the *results* of decisions (order IDs, clearing
// outcomes, credit amounts) — never the inputs to them — so replay is
// pure bookkeeping: no auction is ever re-run, no budget re-checked.
const (
	// EvAccountOpened creates a team account with its starting balance.
	EvAccountOpened = "account-opened"
	// EvOrderSubmitted books an order (ID, team, frozen bid) whose budget
	// commitment was already approved by the live-path check.
	EvOrderSubmitted = "order-submitted"
	// EvOrderCancelled withdraws an open order and releases its
	// commitment.
	EvOrderCancelled = "order-cancelled"
	// EvOrderAttempted records an order surviving a non-convergent clock
	// (Attempts carries the new count).
	EvOrderAttempted = "order-attempted"
	// EvOrderSettled moves an order to a terminal status. Won carries the
	// allocation and payment and implies the settlement money movement
	// (commitment release, payment debit, operator credit, ledger pair,
	// quota grant); Lost and Unsettled release the commitment.
	EvOrderSettled = "order-settled"
	// EvAuctionCleared appends the completed AuctionRecord to history —
	// always after the batch's per-order settlement events.
	EvAuctionCleared = "auction-cleared"
	// EvBalanceCredited posts one off-auction credit to a team against
	// the operator account, with a ledger pair.
	EvBalanceCredited = "balance-credited"
	// EvDisbursed posts one budget disbursement: a list of per-team
	// credits against the operator account, with ledger pairs.
	EvDisbursed = "disbursed"
	// EvOrderPlaced schedules a won order's allocation onto the fleet.
	// Replay re-runs the deterministic chunked placement, reproducing
	// task IDs and machine assignments bit-identically.
	EvOrderPlaced = "order-placed"
	// EvTaskEvicted removes one placed task from the fleet.
	EvTaskEvicted = "task-evicted"

	// EvDegradedEntered and EvDegradedExited mark the exchange entering
	// and leaving degraded quiesce after a journal failure. They are
	// telemetry-only: never journaled (replay must not see operational
	// weather), published directly by the degrade machinery.
	EvDegradedEntered = "degraded-entered"
	EvDegradedExited  = "degraded-exited"
)

// Credit is one team's share of a disbursement.
type Credit struct {
	Team   string  `json:"team"`
	Amount float64 `json:"amount"`
}

// Event is the single flat record type covering every kind; unused
// fields are omitted from the encoding. Payload floats round-trip
// bit-exactly through encoding/json (shortest-representation encode,
// exact decode), which the crash-recovery fingerprint contract relies
// on.
type Event struct {
	Kind string `json:"k"`

	Team    string      `json:"team,omitempty"`
	OrderID int         `json:"order,omitempty"`
	Auction int         `json:"auction,omitempty"`
	Status  OrderStatus `json:"status,omitempty"`
	// Attempts is the order's non-convergence count after this event.
	Attempts   int             `json:"attempts,omitempty"`
	Bid        *core.Bid       `json:"bid,omitempty"`
	Allocation resource.Vector `json:"alloc,omitempty"`
	Payment    float64         `json:"payment,omitempty"`
	Amount     float64         `json:"amount,omitempty"`
	Balance    float64         `json:"balance,omitempty"`
	Memo       string          `json:"memo,omitempty"`
	Record     *AuctionRecord  `json:"record,omitempty"`
	Policy     string          `json:"policy,omitempty"`
	Credits    []Credit        `json:"credits,omitempty"`
	Cluster    string          `json:"cluster,omitempty"`
	TaskID     string          `json:"task,omitempty"`
}

// EventSource is the firehose Source value the exchange publishes
// under; firehose consumers filtering market events match on it and
// type-assert Payload to *Event.
const EventSource = "market"

// emitEvent materializes the event to both sinks: the journal (when
// one is attached, appended *before* the telemetry publish so a
// journal failure never produces a phantom event on the wire) and the
// telemetry firehose (when a subscriber is listening). Every call site
// either holds the lock guarding the state the event describes (a
// stripe lock, settleMu) or runs single-threaded, so the journal's
// sequence order is consistent with the order mutations become
// visible. Replay never comes through here — recovery dispatches
// straight to applyEvent — so a recovered process does not re-publish
// its own history.
func (e *Exchange) emitEvent(ev *Event) error {
	if err := e.journalEvents(ev); err != nil {
		return err
	}
	e.fire.Publish(EventSource, ev.Kind, ev)
	return nil
}

// journalEvents appends evs to the journal, when one is attached, as
// one batch: one write and at most one fsync, all or nothing. A batch
// that fails its bounded retries has been rolled back — nothing of it
// is readable — and quiesces the exchange, so no further state is
// acknowledged until the disk heals.
func (e *Exchange) journalEvents(evs ...*Event) error {
	if e.journal == nil {
		return nil
	}
	// One event, the submit path's case, encodes into a stack array.
	var one [1][]byte
	raws := one[:0]
	for _, ev := range evs {
		raw, err := json.Marshal(ev)
		if err != nil {
			return fmt.Errorf("market: encode %s event: %w", ev.Kind, err)
		}
		raws = append(raws, raw)
	}
	if err := e.appendWithRetry(raws); err != nil {
		e.enterDegraded(err)
		return fmt.Errorf("market: journal %s event: %w", evs[len(evs)-1].Kind, err)
	}
	return nil
}

// materializing reports whether events have anywhere to go: a journal,
// a firehose subscriber, or both. The hot paths whose events exist
// only for those sinks (submit, cancel, account opening — the
// settlement events also drive applyEvent and are materialized
// regardless) check it before building an Event, so the in-memory,
// unwatched exchange pays two branches instead of an allocation that
// emitEvent would immediately discard. Telemetry and journaling are
// deliberately decoupled here: Config.Telemetry works with or without
// a WAL, feeding both from the same typed event stream.
func (e *Exchange) materializing() bool { return e.journal != nil || e.fire.Active() }
