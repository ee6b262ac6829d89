package journal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mustOpen(t *testing.T, dir string, opts Options) (*Journal, *Recovery) {
	t.Helper()
	j, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return j, rec
}

func appendAll(t *testing.T, j *Journal, payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		if _, err := j.Append([]byte(p)); err != nil {
			t.Fatalf("Append(%q): %v", p, err)
		}
	}
}

func recordsAsStrings(rec *Recovery) []string {
	out := make([]string, len(rec.Records))
	for i, r := range rec.Records {
		out[i] = string(r)
	}
	return out
}

func TestAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, rec := mustOpen(t, dir, Options{})
	if !rec.Empty() {
		t.Fatalf("fresh dir recovery not empty: %+v", rec)
	}
	appendAll(t, j, "a", "b", "c")
	if got := j.Seq(); got != 3 {
		t.Fatalf("Seq = %d, want 3", got)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, rec2 := mustOpen(t, dir, Options{})
	defer j2.Close()
	if got, want := fmt.Sprint(recordsAsStrings(rec2)), "[a b c]"; got != want {
		t.Fatalf("recovered %s, want %s", got, want)
	}
	if rec2.Truncated {
		t.Fatalf("clean close reported truncation: %s", rec2.TruncReason)
	}
	if j2.Seq() != 3 {
		t.Fatalf("Seq after recovery = %d, want 3", j2.Seq())
	}
	// Appends continue the sequence.
	seq, err := j2.Append([]byte("d"))
	if err != nil || seq != 4 {
		t.Fatalf("Append after recovery: seq=%d err=%v, want 4", seq, err)
	}
}

func TestCrashPreservesAppendedRecords(t *testing.T) {
	dir := t.TempDir()
	// A huge group-commit window: nothing is fsynced, yet a process
	// crash (not power loss) must still lose no appended record.
	j, _ := mustOpen(t, dir, Options{FsyncEvery: 1 << 20})
	appendAll(t, j, "a", "b", "c")
	j.Crash()

	_, rec := mustOpen(t, dir, Options{})
	if got, want := fmt.Sprint(recordsAsStrings(rec)), "[a b c]"; got != want {
		t.Fatalf("recovered %s after crash, want %s", got, want)
	}
}

func TestTruncatedTailRecord(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	appendAll(t, j, "first", "second")
	j.Crash()

	// Tear the tail mid-record, as a crash mid-write would.
	wal := filepath.Join(dir, "wal")
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	torn := data[:len(data)-3]
	if err := os.WriteFile(wal, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := mustOpen(t, dir, Options{})
	if got, want := fmt.Sprint(recordsAsStrings(rec)), "[first]"; got != want {
		t.Fatalf("recovered %s, want %s (last durable prefix)", got, want)
	}
	if !rec.Truncated {
		t.Fatal("torn tail not reported as truncated")
	}
	wantOff := int64(walHeaderSize + 8 + len("first"))
	if rec.TruncOffset != wantOff {
		t.Fatalf("TruncOffset = %d, want %d", rec.TruncOffset, wantOff)
	}
	if !strings.Contains(rec.TruncReason, fmt.Sprintf("byte offset %d", wantOff)) {
		t.Fatalf("TruncReason %q does not name byte offset %d", rec.TruncReason, wantOff)
	}
	// The torn bytes must be physically gone so future appends don't
	// interleave with garbage.
	if fi, err := os.Stat(wal); err != nil || fi.Size() != wantOff {
		t.Fatalf("wal size = %v (err %v), want %d", fi.Size(), err, wantOff)
	}
}

func TestCRCCorruptedRecord(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	appendAll(t, j, "first", "second", "third")
	j.Crash()

	// Flip a payload byte in the middle record.
	wal := filepath.Join(dir, "wal")
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	secondPayload := int64(walHeaderSize + 8 + len("first") + 8)
	data[secondPayload] ^= 0xff
	if err := os.WriteFile(wal, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := mustOpen(t, dir, Options{})
	if got, want := fmt.Sprint(recordsAsStrings(rec)), "[first]"; got != want {
		t.Fatalf("recovered %s, want %s (everything after the corrupt record is discarded)", got, want)
	}
	if !rec.Truncated || !strings.Contains(rec.TruncReason, "CRC mismatch") {
		t.Fatalf("corruption not reported: truncated=%v reason=%q", rec.Truncated, rec.TruncReason)
	}
	wantOff := int64(walHeaderSize + 8 + len("first"))
	if rec.TruncOffset != wantOff {
		t.Fatalf("TruncOffset = %d, want %d", rec.TruncOffset, wantOff)
	}
	if !strings.Contains(rec.TruncReason, fmt.Sprintf("byte offset %d", wantOff)) {
		t.Fatalf("TruncReason %q does not name byte offset %d", rec.TruncReason, wantOff)
	}
}

func TestEmptyAndPartialSnapshot(t *testing.T) {
	for name, corrupt := range map[string]func(path string) error{
		"empty":   func(p string) error { return os.WriteFile(p, nil, 0o644) },
		"partial": func(p string) error { return os.WriteFile(p, []byte(`{"seq": 2, "sta`), 0o644) },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			j, _ := mustOpen(t, dir, Options{})
			appendAll(t, j, "a", "b")
			j.Crash()
			if err := corrupt(filepath.Join(dir, "snapshot.json")); err != nil {
				t.Fatal(err)
			}

			// The WAL still starts at seq 1, so the corrupt snapshot is
			// ignorable: full replay recovers everything.
			_, rec := mustOpen(t, dir, Options{})
			if got, want := fmt.Sprint(recordsAsStrings(rec)), "[a b]"; got != want {
				t.Fatalf("recovered %s, want %s", got, want)
			}
			if rec.SnapshotSeq != 0 || rec.Snapshot != nil {
				t.Fatalf("corrupt snapshot was served: seq=%d", rec.SnapshotSeq)
			}
			if len(rec.Notes) == 0 || !strings.Contains(rec.Notes[0], "snapshot") {
				t.Fatalf("corrupt snapshot not noted: %v", rec.Notes)
			}
		})
	}
}

func TestSnapshotRotatesWAL(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	appendAll(t, j, "a", "b")
	if err := j.Snapshot([]byte(`{"world":"at-2"}`)); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	appendAll(t, j, "c")
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, rec := mustOpen(t, dir, Options{})
	if rec.SnapshotSeq != 2 {
		t.Fatalf("SnapshotSeq = %d, want 2", rec.SnapshotSeq)
	}
	if string(rec.Snapshot) != `{"world":"at-2"}` {
		t.Fatalf("Snapshot state = %s", rec.Snapshot)
	}
	if got, want := fmt.Sprint(recordsAsStrings(rec)), "[c]"; got != want {
		t.Fatalf("replay tail %s, want %s (pre-snapshot records must be rotated out)", got, want)
	}
	if rec.LastSeq() != 3 {
		t.Fatalf("LastSeq = %d, want 3", rec.LastSeq())
	}
}

func TestCorruptSnapshotWithRotatedWALFailsHard(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	appendAll(t, j, "a", "b")
	if err := j.Snapshot([]byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, "c")
	j.Crash()
	// The WAL was rotated (starts at seq 3); destroying the snapshot
	// loses seq 1–2 irrecoverably. Serving a partial world would violate
	// invariants, so Open must refuse.
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(dir, Options{})
	if err == nil || !strings.Contains(err.Error(), "lost") {
		t.Fatalf("Open with lost prefix: err = %v, want a hard 'records lost' error", err)
	}
}

func TestTornWALHeaderRebuilds(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	appendAll(t, j, "a")
	if err := j.Snapshot([]byte(`{"n":1}`)); err != nil {
		t.Fatal(err)
	}
	j.Crash()
	// Tear the rotated WAL inside its header.
	if err := os.WriteFile(filepath.Join(dir, "wal"), []byte("JRN"), 0o644); err != nil {
		t.Fatal(err)
	}
	j2, rec := mustOpen(t, dir, Options{})
	if rec.SnapshotSeq != 1 || len(rec.Records) != 0 {
		t.Fatalf("recovery = snap %d + %d records, want snapshot-only", rec.SnapshotSeq, len(rec.Records))
	}
	if !rec.Truncated {
		t.Fatal("torn header not reported")
	}
	if seq, err := j2.Append([]byte("b")); err != nil || seq != 2 {
		t.Fatalf("Append after rebuild: seq=%d err=%v, want 2", seq, err)
	}
	j2.Close()
}

func TestForeignWALRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal"), []byte("NOTJRNLxxxxxxxxxxxx"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("Open over a foreign file: err = %v, want bad-magic error", err)
	}
}

func TestDoubleOpenRefused(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	defer j.Close()
	_, _, err := Open(dir, Options{})
	if err == nil || !strings.Contains(err.Error(), "locked by another process") {
		t.Fatalf("second Open: err = %v, want lockfile refusal", err)
	}
}

func TestLockReleasedOnCloseAndCrash(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, _ := mustOpen(t, dir, Options{})
	j2.Crash()
	j3, _ := mustOpen(t, dir, Options{})
	j3.Close()
}

func TestClosedJournalErrors(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	j.Close()
	if _, err := j.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("Append after Close: %v, want ErrClosed", err)
	}
	if err := j.Sync(); err != ErrClosed {
		t.Fatalf("Sync after Close: %v, want ErrClosed", err)
	}
	if err := j.Snapshot(nil); err != ErrClosed {
		t.Fatalf("Snapshot after Close: %v, want ErrClosed", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestAppendBatch(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{FsyncEvery: 2})
	seq, err := j.AppendBatch([][]byte{[]byte("a"), []byte("b"), []byte("c")})
	if err != nil || seq != 3 {
		t.Fatalf("AppendBatch: seq=%d err=%v, want 3", seq, err)
	}
	// Three records cross the window of 2, yet the batch syncs once.
	if m := j.Metrics(); m.Appends != 3 || m.Fsyncs != 1 {
		t.Fatalf("after one batch: appends=%d fsyncs=%d, want 3 and 1", m.Appends, m.Fsyncs)
	}
	j.Crash()
	_, rec := mustOpen(t, dir, Options{})
	if got, want := fmt.Sprint(recordsAsStrings(rec)), "[a b c]"; got != want {
		t.Fatalf("recovered %s, want %s", got, want)
	}
}

func TestGroupCommitSyncOnDemand(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{FsyncEvery: 64})
	appendAll(t, j, "a")
	if err := j.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// A second Sync with nothing unsynced is a no-op.
	if err := j.Sync(); err != nil {
		t.Fatalf("idempotent Sync: %v", err)
	}
	j.Close()
}

// TestCloseFsyncIsCounted pins that the fsync Close makes of an
// unsynced group-commit tail shows up in the counter and the latency
// histogram like every other WAL fsync.
func TestCloseFsyncIsCounted(t *testing.T) {
	j, _ := mustOpen(t, t.TempDir(), Options{FsyncEvery: 64})
	appendAll(t, j, "a")
	if m := j.Metrics(); m.Fsyncs != 0 {
		t.Fatalf("fsyncs before Close = %d, want 0 inside the window", m.Fsyncs)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	m := j.Metrics()
	if m.Fsyncs != 1 {
		t.Fatalf("fsyncs after Close = %d, want 1", m.Fsyncs)
	}
	observed := m.FsyncLatency.Inf
	for _, c := range m.FsyncLatency.Counts {
		observed += c
	}
	if observed != 1 {
		t.Fatalf("fsync latency histogram holds %d samples, want 1", observed)
	}
}

// TestTornTailAfterSnapshot combines both repair paths: snapshot intact,
// tail torn — recovery is snapshot + the durable prefix of the tail.
func TestTornTailAfterSnapshot(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	appendAll(t, j, "a", "b")
	if err := j.Snapshot([]byte(`{"n":2}`)); err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, "c", "d")
	j.Crash()
	wal := filepath.Join(dir, "wal")
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal, data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := mustOpen(t, dir, Options{})
	if rec.SnapshotSeq != 2 {
		t.Fatalf("SnapshotSeq = %d, want 2", rec.SnapshotSeq)
	}
	if got, want := fmt.Sprint(recordsAsStrings(rec)), "[c]"; got != want {
		t.Fatalf("tail %s, want %s", got, want)
	}
	if rec.LastSeq() != 3 {
		t.Fatalf("LastSeq = %d, want 3", rec.LastSeq())
	}
	if !rec.Truncated {
		t.Fatal("torn tail not reported")
	}
}

// TestSeqEncodingIsLittleEndian pins the on-disk header format: firstSeq
// is encoded little-endian after the magic, so journals are portable
// across architectures.
func TestSeqEncodingIsLittleEndian(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, dir, Options{})
	appendAll(t, j, "a", "b", "c")
	if err := j.Snapshot([]byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	data, err := os.ReadFile(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint64(data[len(walMagic):walHeaderSize]); got != 4 {
		t.Fatalf("rotated wal firstSeq = %d, want 4", got)
	}
}
