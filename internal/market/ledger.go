package market

// ledgerChunk is how many entries one chunk of the billing ledger holds
// (56 KiB of entries on 64-bit platforms).
const ledgerChunk = 1024

// ledger is the append-only billing ledger, stored in fixed-size chunks:
// appending never reallocates or copies the history, only, once per
// chunk, the short slice of chunk headers. Every chunk but the last is
// full, so entry i is chunks[i/ledgerChunk][i%ledgerChunk]. The owner
// guards it (Exchange.ledgerMu).
type ledger struct {
	chunks [][]LedgerEntry
	n      int
}

// append adds le as entry number l.n.
func (l *ledger) append(le LedgerEntry) {
	if l.n%ledgerChunk == 0 {
		l.chunks = append(l.chunks, make([]LedgerEntry, 0, ledgerChunk))
	}
	last := &l.chunks[len(l.chunks)-1]
	*last = append(*last, le)
	l.n++
}

// from returns a copy of the entries from the from'th on, oldest first,
// or nil when there are none.
func (l *ledger) from(from int) []LedgerEntry {
	from = max(from, 0)
	if from >= l.n {
		return nil
	}
	out := make([]LedgerEntry, 0, l.n-from)
	for c := from / ledgerChunk; c < len(l.chunks); c++ {
		chunk := l.chunks[c]
		if c == from/ledgerChunk {
			chunk = chunk[from%ledgerChunk:]
		}
		out = append(out, chunk...)
	}
	return out
}

// sum adds every entry's amount, oldest first.
func (l *ledger) sum() float64 {
	var s float64
	for _, chunk := range l.chunks {
		for _, le := range chunk {
			s += le.Amount
		}
	}
	return s
}
