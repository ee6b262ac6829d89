// Package journal is the durability layer under the event-sourced
// exchange: an append-only write-ahead log of framed event records plus
// a periodically rewritten snapshot, stored together in one directory.
//
// Layout and protocol:
//
//   - LOCK — a flock(2)-held lockfile. Open refuses the directory while
//     another live process holds it; the kernel releases the lock when
//     the holder dies, so a crashed process never wedges recovery.
//   - wal — the write-ahead log: a 14-byte header (magic "JRNL1\n" plus
//     the little-endian sequence number of the first record) followed by
//     length+CRC framed records: [uint32 len][uint32 crc32(payload)]
//     [payload]. Appends write() straight to the file descriptor — there
//     is no userspace buffer — so a process kill loses nothing that was
//     appended; an fsync policy (Options.FsyncEvery) bounds what power
//     loss can take.
//   - snapshot.json — {"seq": N, "state": …}: the caller's full state at
//     sequence N, written tmp+rename+dir-fsync so it is atomically either
//     the old or the new snapshot. After a durable snapshot the WAL is
//     rotated: a fresh wal starting at N+1 replaces it, bounding replay.
//
// Recovery = snapshot + replay of the WAL tail. A torn tail — a partial
// frame or a CRC mismatch, the signature of a mid-write crash — is
// physically truncated to the last durable prefix and reported (with the
// byte offset, frame index, and best-effort event kind) in Recovery,
// never served; Open fails hard only when the surviving files cannot
// reconstruct any consistent prefix (for instance, a rotated WAL whose
// covering snapshot is unreadable).
//
// Disk faults at runtime are first-class, not just crash artifacts:
// every disk operation goes through the Options.FS seam, and a failed
// append (write error, short write, or a failed group-commit fsync)
// rolls the WAL back to its pre-append length before the error is
// returned — no partial frame is ever readable, a retried append
// reproduces the identical byte stream, and Probe lets a degraded
// caller test whether the disk has healed.
package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"clustermarket/internal/telemetry"
)

// walMagic begins every WAL file; the trailing newline makes `head -1`
// on a journal identify itself.
var walMagic = []byte("JRNL1\n")

const walHeaderSize = 6 + 8 // magic + little-endian firstSeq

// ErrClosed is returned by operations on a closed (or crashed) journal.
var ErrClosed = errors.New("journal: closed")

// ErrLocked is wrapped into Open's error when another live process
// holds the directory flock, so supervisors can distinguish a
// lock-held race (retryable: the old process is still shutting down)
// from real damage. Test with errors.Is.
var ErrLocked = errors.New("journal: directory locked")

// Options tunes a Journal.
type Options struct {
	// FsyncEvery is the group-commit window: the WAL is fsynced after
	// every FsyncEvery appended records. 1 (the default) fsyncs each
	// append — full power-loss durability at full latency cost; larger
	// windows amortize the fsync across a batch, bounding power loss to
	// the window while a plain process crash still loses nothing.
	FsyncEvery int
	// FS is the filesystem the journal operates through; nil means the
	// real one (OSFS). Tests and internal/fault substitute an injecting
	// wrapper to exercise the disk-failure paths deterministically.
	FS FS
}

// Recovery is what Open found on disk: the latest durable snapshot (if
// any) and the WAL records after it, in append order. Seq numbers are
// 1-based; record i carries sequence SnapshotSeq+1+i.
type Recovery struct {
	// SnapshotSeq is the sequence the snapshot covers (0 = no snapshot).
	SnapshotSeq uint64
	// Snapshot is the caller state stored at SnapshotSeq, nil when none.
	Snapshot []byte
	// Records are the WAL payloads after the snapshot, in order.
	Records [][]byte
	// Truncated reports that a torn tail was cut back; TruncOffset is the
	// byte offset of the first discarded byte and TruncReason says why.
	Truncated   bool
	TruncOffset int64
	TruncReason string
	// TruncFrame is the 0-based index, within this WAL, of the first
	// discarded frame, and TruncKind the event kind decoded (best
	// effort) from whatever payload bytes of it survive — together they
	// tell an operator *what* was lost, not just where. TruncKind is ""
	// when the bytes are undecodable. Only meaningful when Truncated.
	TruncFrame int
	TruncKind  string
	// Notes collects non-fatal recovery observations (ignored snapshots,
	// rebuilt WAL headers, truncations).
	Notes []string
}

// Empty reports whether the directory held no durable state at all —
// the fresh-start case callers use to decide whether to seed a world.
func (r *Recovery) Empty() bool { return r.SnapshotSeq == 0 && len(r.Records) == 0 }

// LastSeq returns the sequence number of the last recovered record.
func (r *Recovery) LastSeq() uint64 { return r.SnapshotSeq + uint64(len(r.Records)) }

// Journal is an open WAL + snapshot directory. All methods are safe for
// concurrent use; Append order defines the global sequence order.
type Journal struct {
	mu       sync.Mutex
	dir      string
	opts     Options
	fs       FS
	wal      File
	lock     *os.File
	seq      uint64 // last assigned sequence number
	unsynced int    // appends since the last fsync
	good     int64  // byte length of the fully-framed WAL prefix
	torn     bool   // a failed write left a tail past good that must be cut
	dead     bool

	// Operational counters behind /metrics. Atomic so Metrics never
	// takes j.mu (a scrape must not contend with group commit); the
	// fsync-latency histogram wraps the wal.Sync calls, which run under
	// j.mu and so time exactly the commit path a writer waits on.
	appends   atomic.Uint64
	bytes     atomic.Uint64
	fsyncs    atomic.Uint64
	snapshots atomic.Uint64
	fsyncLat  *telemetry.Histogram
}

// Metrics is a point-in-time copy of the journal's operational
// counters.
type Metrics struct {
	// Appends and Bytes count framed records and frame bytes durably
	// acknowledged to the WAL (headers included); rolled-back appends
	// are not counted.
	Appends, Bytes uint64
	// Fsyncs counts group-commit fsyncs of the WAL; FsyncLatency is
	// their latency distribution. Snapshots counts durable snapshot
	// rotations.
	Fsyncs, Snapshots uint64
	FsyncLatency      telemetry.HistogramSnapshot
}

// Metrics snapshots the counters without taking the journal lock.
func (j *Journal) Metrics() Metrics {
	return Metrics{
		Appends:      j.appends.Load(),
		Bytes:        j.bytes.Load(),
		Fsyncs:       j.fsyncs.Load(),
		Snapshots:    j.snapshots.Load(),
		FsyncLatency: j.fsyncLat.Snapshot(),
	}
}

// syncWALLocked is the single timed fsync path: every WAL fsync goes
// through here so the latency histogram and counter see them all.
func (j *Journal) syncWALLocked() error {
	start := time.Now()
	err := j.wal.Sync()
	j.fsyncLat.Observe(time.Since(start))
	j.fsyncs.Add(1)
	return err
}

type snapshotFile struct {
	Seq   uint64          `json:"seq"`
	State json.RawMessage `json:"state"`
}

// Open acquires the directory (creating it if needed), recovers its
// durable state, and returns the journal positioned to append after the
// recovered prefix. A second Open of the same directory by a live
// process fails with an error wrapping ErrLocked.
func Open(dir string, opts Options) (*Journal, *Recovery, error) {
	if opts.FsyncEvery <= 0 {
		opts.FsyncEvery = 1
	}
	fs := opts.FS
	if fs == nil {
		fs = OSFS()
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: create %s: %w", dir, err)
	}
	lock, err := acquireLock(dir)
	if err != nil {
		return nil, nil, err
	}
	j := &Journal{dir: dir, opts: opts, fs: fs, lock: lock, fsyncLat: telemetry.NewFsyncHistogram()}
	rec, err := j.recover()
	if err != nil {
		lock.Close()
		return nil, nil, err
	}
	return j, rec, nil
}

// acquireLock flocks dir/LOCK exclusively, non-blocking. The lock dies
// with the process, so stale lockfiles never block recovery. The lock
// is raw os, never behind the FS seam: flock needs a real descriptor.
func acquireLock(dir string) (*os.File, error) {
	path := filepath.Join(dir, "LOCK")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open lockfile: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: directory %s is locked by another process (flock %s: %v): %w", dir, path, err, ErrLocked)
	}
	return f, nil
}

func (j *Journal) walPath() string  { return filepath.Join(j.dir, "wal") }
func (j *Journal) snapPath() string { return filepath.Join(j.dir, "snapshot.json") }

// recover loads the snapshot and WAL tail, repairing a torn tail, and
// leaves j.wal open for appends.
func (j *Journal) recover() (*Recovery, error) {
	rec := &Recovery{}

	// Snapshot: an unreadable file (empty, partial, corrupt JSON) is
	// ignored with a note — recovery can still succeed from a full WAL.
	var snapSeq uint64
	if raw, err := j.fs.ReadFile(j.snapPath()); err == nil {
		var snap snapshotFile
		if jerr := json.Unmarshal(raw, &snap); jerr != nil {
			rec.Notes = append(rec.Notes, fmt.Sprintf("snapshot %s unreadable (%v); ignored", j.snapPath(), jerr))
		} else {
			snapSeq = snap.Seq
			rec.SnapshotSeq = snap.Seq
			rec.Snapshot = snap.State
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("journal: read snapshot: %w", err)
	}

	data, err := j.fs.ReadFile(j.walPath())
	switch {
	case os.IsNotExist(err):
		if err := j.writeFreshWAL(snapSeq + 1); err != nil {
			return nil, err
		}
		j.seq = snapSeq
		j.good = walHeaderSize
	case err != nil:
		return nil, fmt.Errorf("journal: read wal: %w", err)
	default:
		firstSeq, payloads, goodLen, reason, tornTail, perr := parseWAL(data)
		if perr != nil {
			return nil, fmt.Errorf("journal: wal %s: %w", j.walPath(), perr)
		}
		if goodLen < walHeaderSize {
			// The header itself is torn (empty or partial file): nothing in
			// this WAL is recoverable, so rebuild it after the snapshot.
			rec.Truncated = true
			rec.TruncOffset = goodLen
			rec.TruncReason = reason
			rec.Notes = append(rec.Notes, fmt.Sprintf("wal %s: %s; rebuilt empty at seq %d", j.walPath(), reason, snapSeq+1))
			if err := j.writeFreshWAL(snapSeq + 1); err != nil {
				return nil, err
			}
			j.seq = snapSeq
			j.good = walHeaderSize
			break
		}
		if reason != "" {
			rec.Truncated = true
			rec.TruncOffset = goodLen
			rec.TruncReason = reason
			rec.TruncFrame = len(payloads)
			rec.TruncKind = payloadKind(tornTail)
			lost := fmt.Sprintf("frame %d", rec.TruncFrame)
			if rec.TruncKind != "" {
				lost += fmt.Sprintf(" (%s event)", rec.TruncKind)
			}
			rec.Notes = append(rec.Notes, fmt.Sprintf(
				"wal %s: %s; discarded %s, truncated to last durable prefix (%d bytes, %d records)",
				j.walPath(), reason, lost, goodLen, len(payloads)))
			if err := j.fs.Truncate(j.walPath(), goodLen); err != nil {
				return nil, fmt.Errorf("journal: truncate torn wal: %w", err)
			}
		}
		if firstSeq > snapSeq+1 {
			return nil, fmt.Errorf(
				"journal: wal %s starts at seq %d but the latest durable snapshot covers only seq %d — records %d..%d are lost",
				j.walPath(), firstSeq, snapSeq, snapSeq+1, firstSeq-1)
		}
		last := firstSeq + uint64(len(payloads)) - 1
		if len(payloads) == 0 {
			last = firstSeq - 1
		}
		for i, p := range payloads {
			if firstSeq+uint64(i) <= snapSeq {
				continue // already folded into the snapshot
			}
			rec.Records = append(rec.Records, p)
		}
		j.seq = last
		if j.seq < snapSeq {
			j.seq = snapSeq
		}
		j.good = goodLen
	}

	f, err := j.fs.OpenFile(j.walPath(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: open wal for append: %w", err)
	}
	j.wal = f
	return rec, nil
}

// parseWAL walks the framed records. It returns the parsed payloads,
// the byte length of the valid prefix, and — when the file ends in a
// torn or corrupt frame — a human reason naming the byte offset plus
// whatever payload bytes of the offending frame survive (for
// best-effort kind identification). A foreign header (wrong magic) is
// a hard error.
func parseWAL(data []byte) (firstSeq uint64, payloads [][]byte, goodLen int64, reason string, torn []byte, err error) {
	if len(data) < walHeaderSize {
		return 0, nil, int64(len(data)),
			fmt.Sprintf("torn header: %d of %d bytes", len(data), walHeaderSize), nil, nil
	}
	if !bytes.Equal(data[:len(walMagic)], walMagic) {
		return 0, nil, 0, "", nil, fmt.Errorf("bad magic %q (not a journal WAL)", data[:len(walMagic)])
	}
	firstSeq = binary.LittleEndian.Uint64(data[len(walMagic):walHeaderSize])
	off := int64(walHeaderSize)
	for off < int64(len(data)) {
		rest := data[off:]
		if len(rest) < 8 {
			return firstSeq, payloads, off,
				fmt.Sprintf("torn record frame at byte offset %d (%d trailing bytes)", off, len(rest)), nil, nil
		}
		n := binary.LittleEndian.Uint32(rest[:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if int64(n) > int64(len(rest))-8 {
			return firstSeq, payloads, off,
				fmt.Sprintf("torn record at byte offset %d (payload length %d, only %d bytes remain)", off, n, len(rest)-8), rest[8:], nil
		}
		payload := rest[8 : 8+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return firstSeq, payloads, off,
				fmt.Sprintf("CRC mismatch at byte offset %d (record seq %d)", off, firstSeq+uint64(len(payloads))), payload, nil
		}
		payloads = append(payloads, append([]byte(nil), payload...))
		off += 8 + int64(n)
	}
	return firstSeq, payloads, off, "", nil, nil
}

// payloadKind best-effort decodes the event kind from a frame payload
// that may be partial or corrupt. Event payloads are JSON objects whose
// kind is the leading "k" field (market and federation events alike),
// so even a torn prefix usually identifies what was lost.
func payloadKind(p []byte) string {
	if len(p) == 0 {
		return ""
	}
	var probe struct {
		K string `json:"k"`
	}
	if err := json.Unmarshal(p, &probe); err == nil && probe.K != "" {
		return probe.K
	}
	const key = `"k":"`
	if i := bytes.Index(p, []byte(key)); i >= 0 {
		rest := p[i+len(key):]
		if end := bytes.IndexByte(rest, '"'); end > 0 {
			return string(rest[:end])
		}
	}
	return ""
}

// writeFreshWAL creates an empty WAL whose first record will carry
// firstSeq, via tmp+rename+dir-fsync so a crash leaves either the old
// or the new file.
func (j *Journal) writeFreshWAL(firstSeq uint64) error {
	var hdr [walHeaderSize]byte
	copy(hdr[:], walMagic)
	binary.LittleEndian.PutUint64(hdr[len(walMagic):], firstSeq)
	tmp := j.walPath() + ".tmp"
	f, err := j.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("journal: create wal: %w", err)
	}
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("journal: write wal header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("journal: sync wal: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal: close wal: %w", err)
	}
	if err := j.fs.Rename(tmp, j.walPath()); err != nil {
		return fmt.Errorf("journal: install wal: %w", err)
	}
	return j.syncDir()
}

func (j *Journal) syncDir() error {
	if err := j.fs.SyncDir(j.dir); err != nil {
		return fmt.Errorf("journal: sync dir: %w", err)
	}
	return nil
}

// Seq returns the last assigned sequence number.
func (j *Journal) Seq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// Append writes one framed record to the WAL and returns its sequence
// number: a one-record AppendBatch.
func (j *Journal) Append(payload []byte) (uint64, error) {
	return j.AppendBatch([][]byte{payload})
}

// AppendBatch writes records as one write(2) and returns the sequence
// number of the last. The records hit the file descriptor before
// AppendBatch returns (a process crash cannot lose them); the batch
// counts as len(payloads) records toward the group-commit window
// (Options.FsyncEvery) but costs at most one fsync, so a batch crossing
// the window is synced once, after its last record. On failure the WAL
// is rolled back to its pre-append length: no record of the batch is
// readable, no sequence number is consumed, and an identical retry is
// safe. Only a crash mid-write can leave part of a batch behind, and
// recovery cuts that to a prefix of whole frames.
func (j *Journal) AppendBatch(payloads [][]byte) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dead {
		return 0, ErrClosed
	}
	if err := j.repairIfTornLocked(); err != nil {
		return 0, err
	}
	size := 0
	for _, p := range payloads {
		size += 8 + len(p)
	}
	buf := make([]byte, 0, size)
	for _, p := range payloads {
		buf = appendFrame(buf, p)
	}
	if err := j.writeFramesLocked(buf, len(payloads)); err != nil {
		return 0, err
	}
	return j.seq, nil
}

// writeFramesLocked writes one fully framed buffer carrying n records
// and advances the sequence, rolling the WAL back to its pre-write
// length on any failure — write error, short write, or a failed
// group-commit fsync — so an unacknowledged record never becomes
// readable and a retry reproduces the identical byte stream.
func (j *Journal) writeFramesLocked(buf []byte, n int) error {
	start := j.good
	wrote, werr := j.wal.Write(buf)
	if werr != nil || wrote != len(buf) {
		if werr == nil {
			werr = io.ErrShortWrite
		}
		j.retractLocked(start)
		return fmt.Errorf("journal: append: %w", werr)
	}
	j.good += int64(len(buf))
	j.seq += uint64(n)
	j.unsynced += n
	if err := j.maybeSyncLocked(); err != nil {
		// The frames hit the fd but their durability is unknown; retract
		// them so the acknowledged prefix and the file agree and the
		// caller's retry cannot duplicate them.
		j.seq -= uint64(n)
		j.unsynced -= n
		j.retractLocked(start)
		return err
	}
	j.appends.Add(uint64(n))
	j.bytes.Add(uint64(len(buf)))
	return nil
}

// retractLocked cuts the WAL back to good bytes after a failed write so
// no partial or unacknowledged frame is ever readable. If the truncate
// itself fails (the disk is truly sick) the journal is marked torn and
// the cut is retried before the next append, or by Probe.
func (j *Journal) retractLocked(good int64) {
	j.good = good
	if err := j.fs.Truncate(j.walPath(), good); err != nil {
		j.torn = true
		return
	}
	j.torn = false
}

func (j *Journal) repairIfTornLocked() error {
	if !j.torn {
		return nil
	}
	if err := j.fs.Truncate(j.walPath(), j.good); err != nil {
		return fmt.Errorf("journal: repair torn tail: %w", err)
	}
	j.torn = false
	return nil
}

// Probe checks whether the journal can currently persist: it repairs
// any torn tail left behind by a failed append, then forces an fsync
// round trip of the WAL. A nil return means the disk accepted a full
// write path and appends may resume — the health check degraded
// callers use to decide when to exit quiesce.
func (j *Journal) Probe() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dead {
		return ErrClosed
	}
	if err := j.repairIfTornLocked(); err != nil {
		return err
	}
	if err := j.syncWALLocked(); err != nil {
		return fmt.Errorf("journal: probe fsync: %w", err)
	}
	j.unsynced = 0
	return nil
}

func appendFrame(buf, payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

func (j *Journal) maybeSyncLocked() error {
	if j.unsynced < j.opts.FsyncEvery {
		return nil
	}
	if err := j.syncWALLocked(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.unsynced = 0
	return nil
}

// Sync flushes any unsynced tail of the group-commit window to stable
// storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dead {
		return ErrClosed
	}
	if j.unsynced == 0 {
		return nil
	}
	if err := j.syncWALLocked(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	j.unsynced = 0
	return nil
}

// Snapshot durably stores state as covering every record appended so
// far, then rotates the WAL so replay restarts from the snapshot. The
// caller must guarantee state reflects exactly the events up to the
// current sequence (i.e. no concurrent appends are in flight).
//
// The rotation is failure-safe: the current WAL file and descriptor
// are not touched until the replacement is durably written and renamed
// into place, so a Snapshot that fails at any step leaves the journal
// exactly as it was — fully appendable, with the old (longer) replay
// tail — and the caller may simply retry later.
func (j *Journal) Snapshot(state []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dead {
		return ErrClosed
	}
	raw, err := json.Marshal(snapshotFile{Seq: j.seq, State: state})
	if err != nil {
		return fmt.Errorf("journal: marshal snapshot: %w", err)
	}
	tmp := j.snapPath() + ".tmp"
	f, err := j.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("journal: create snapshot: %w", err)
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		return fmt.Errorf("journal: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("journal: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal: close snapshot: %w", err)
	}
	if err := j.fs.Rename(tmp, j.snapPath()); err != nil {
		return fmt.Errorf("journal: install snapshot: %w", err)
	}
	if err := j.syncDir(); err != nil {
		return err
	}
	// The snapshot is durable; rotate the WAL so the replay tail is
	// bounded. Build the replacement completely — written, synced, and
	// reopened for append — before renaming it over the old WAL, and
	// only then swap descriptors: a failure anywhere leaves the old WAL
	// (whose records the snapshot now covers) still attached and valid.
	var hdr [walHeaderSize]byte
	copy(hdr[:], walMagic)
	binary.LittleEndian.PutUint64(hdr[len(walMagic):], j.seq+1)
	walTmp := j.walPath() + ".tmp"
	tf, err := j.fs.Create(walTmp)
	if err != nil {
		return fmt.Errorf("journal: create wal: %w", err)
	}
	if _, err := tf.Write(hdr[:]); err != nil {
		tf.Close()
		return fmt.Errorf("journal: write wal header: %w", err)
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return fmt.Errorf("journal: sync wal: %w", err)
	}
	if err := tf.Close(); err != nil {
		return fmt.Errorf("journal: close wal: %w", err)
	}
	// Open the replacement while it is still at its tmp name: the
	// descriptor follows the inode through the rename, and if this open
	// fails the old WAL has not been displaced.
	nf, err := j.fs.OpenFile(walTmp, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: reopen wal: %w", err)
	}
	if err := j.fs.Rename(walTmp, j.walPath()); err != nil {
		nf.Close()
		return fmt.Errorf("journal: install wal: %w", err)
	}
	old := j.wal
	j.wal = nf
	j.good = walHeaderSize
	j.torn = false
	j.unsynced = 0
	old.Close()
	j.snapshots.Add(1)
	return j.syncDir()
}

// Close fsyncs and closes the journal, releasing the directory lock.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dead {
		return nil
	}
	j.dead = true
	var first error
	if j.unsynced > 0 {
		if err := j.syncWALLocked(); err != nil {
			first = fmt.Errorf("journal: fsync on close: %w", err)
		}
	}
	if err := j.wal.Close(); err != nil && first == nil {
		first = err
	}
	if err := j.lock.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// Crash closes the file descriptors without the final fsync — the
// moral equivalent of SIGKILL, for crash-recovery tests and scenarios.
// Appended records survive (they were written, and the OS page cache
// outlives the process); only the flock is released.
func (j *Journal) Crash() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.dead {
		return
	}
	j.dead = true
	j.wal.Close()
	j.lock.Close()
}
