package serve

import (
	"context"
	"encoding/binary"
	"fmt"

	"tends/internal/chaos"
	"tends/internal/journal"
	"tends/internal/obs"
)

// The write-ahead log is the service's durability floor: a batch is acked
// only after its record is on disk (group fsync), so any acked row survives
// kill -9 and is replayed byte-identically on restart.
//
// The log is a journal (internal/journal) tagged "wal". Its records:
//
//	header (first record): n u32 | baseRow u64
//	batch (every later record): canonical batch encoding (codec.go)
//
// baseRow is how many rows were already durable in the snapshot when this
// WAL generation was created; replay starts feeding state at that offset.
// The journal's framing (length, CRC-32C) detects a torn or damaged tail,
// and lenient replay truncates it away. A torn tail holds only bytes that
// were never acked (an ack waits for the fsync), so truncating it restores
// the exact acked prefix.

const (
	walTag        = "wal"
	walHeaderSize = 4 + 8
)

// ErrWALCorrupt reports a damaged WAL in strict mode, or a WAL whose
// checksummed records do not decode; errors.Is works through the wrapped
// detail.
var ErrWALCorrupt = journal.ErrCorrupt

// WAL is the append side of the log. Appends and syncs are serialized by
// the caller (the service's single ingest loop).
type WAL struct {
	j       *journal.Writer
	path    string
	n       int
	baseRow uint64
	rows    int64 // rows framed in this generation (appended + replayed)
	buf     []byte
}

func walHeader(n int, baseRow uint64) []byte {
	hdr := binary.LittleEndian.AppendUint32(make([]byte, 0, walHeaderSize), uint32(n))
	return binary.LittleEndian.AppendUint64(hdr, baseRow)
}

// CreateWAL starts a fresh log at path for n nodes, with baseRow rows
// already durable in the snapshot. An existing file is truncated.
func CreateWAL(path string, n int, baseRow uint64) (*WAL, error) {
	j, err := journal.Create(path, walTag)
	if err != nil {
		return nil, fmt.Errorf("serve: create WAL: %w", err)
	}
	if err := j.Append(walHeader(n, baseRow)); err != nil {
		j.Close()
		return nil, fmt.Errorf("serve: write WAL header: %w", err)
	}
	if err := j.Sync(); err != nil {
		j.Close()
		return nil, fmt.Errorf("serve: sync WAL header: %w", err)
	}
	return &WAL{j: j, path: path, n: n, baseRow: baseRow}, nil
}

// ReplayStats reports what OpenWAL recovered.
type ReplayStats struct {
	Batches   int   // batches fed to apply
	Rows      int64 // rows fed to apply (after the baseRow/skip window)
	Skipped   int64 // rows skipped because the snapshot already held them
	Duplicate int   // batches skipped because their id was already applied
	Truncated int64 // damaged tail bytes truncated from the end of the log
	// Damage describes what was truncated (nil on a clean log).
	Damage *journal.Warning
}

// OpenWAL opens an existing log, replays every intact record, and positions
// the WAL for appending after the last good record.
//
// skipRows rows at the head of the log are already part of the caller's
// snapshot and are not re-applied (their batches still count as seen —
// the caller's seen set, loaded from the snapshot, handles that; replay
// additionally consults seen so retried batches recorded twice in the log
// apply exactly once). apply receives each surviving batch in log order.
//
// A damaged tail is truncated in place (and synced) unless strict is set,
// in which case OpenWAL fails with ErrWALCorrupt and touches nothing.
func OpenWAL(ctx context.Context, path string, n int, strict bool,
	skipRows uint64, seen func(id uint64) bool, apply func(b batch) error) (*WAL, ReplayStats, error) {

	var st ReplayStats
	w := &WAL{path: path, n: n}
	header := false
	var skip uint64
	applied := make(map[uint64]bool)
	j, warn, err := journal.Open(path, walTag, strict, func(rec []byte) error {
		if !header {
			if len(rec) != walHeaderSize {
				return fmt.Errorf("%w: %d-byte WAL header record", ErrWALCorrupt, len(rec))
			}
			if hn := int(binary.LittleEndian.Uint32(rec)); hn != n {
				return fmt.Errorf("WAL holds %d-node observations, server configured for %d", hn, n)
			}
			w.baseRow = binary.LittleEndian.Uint64(rec[4:])
			if w.baseRow > skipRows {
				return fmt.Errorf("WAL base row %d is past the snapshot's %d rows — snapshot and log are from different histories", w.baseRow, skipRows)
			}
			header, skip = true, skipRows-w.baseRow
			return nil
		}
		b, err := decodeBatchPayload(rec, n)
		if err != nil {
			return fmt.Errorf("%w: undecodable batch record: %v", ErrWALCorrupt, err)
		}
		w.rows += int64(len(b.rows))

		// The snapshot window: rows the snapshot already folded. Snapshots
		// are cut at batch boundaries, so the window always ends exactly at
		// a record edge; anything else means the files are mismatched.
		if skip > 0 {
			if uint64(len(b.rows)) > skip {
				return fmt.Errorf("snapshot row count lands inside WAL batch %d — snapshot and log are from different histories", b.id)
			}
			skip -= uint64(len(b.rows))
			st.Skipped += int64(len(b.rows))
			return nil
		}
		// A batch acked after an fsync failure gets retried by the client
		// and framed twice; only the first occurrence applies. seen covers
		// batches the caller's snapshot already folded.
		if applied[b.id] || (seen != nil && seen(b.id)) {
			st.Duplicate++
			return nil
		}
		applied[b.id] = true
		if err := apply(b); err != nil {
			return fmt.Errorf("replay batch %d: %w", b.id, err)
		}
		st.Batches++
		st.Rows += int64(len(b.rows))
		return nil
	})
	if err == nil && !header {
		j.Close()
		err = fmt.Errorf("%w: no header record", ErrWALCorrupt)
	}
	if err != nil {
		return nil, st, fmt.Errorf("serve: open WAL %s: %w", path, err)
	}
	w.j = j
	if skip > 0 {
		j.Close()
		return nil, st, fmt.Errorf("serve: snapshot holds %d more rows than the WAL — snapshot and log are from different histories", skip)
	}
	if warn != nil {
		st.Truncated, st.Damage = warn.Dropped, warn
	}
	rec := obs.From(ctx)
	rec.Counter("serve/wal/replayed").Add(st.Rows)
	rec.Counter("serve/wal/truncated").Add(st.Truncated)
	return w, st, nil
}

// Append frames one batch at the end of the log. The record is written but
// NOT durable until Sync; callers must not ack before a successful Sync.
// On any failure (injected or organic) the log is rewound to the last good
// record, so a half-written frame can never precede later appends.
func (w *WAL) Append(ctx context.Context, id uint64, rows [][]int32) error {
	if err := chaos.Maybe(ctx, chaos.SiteWALAppend); err != nil {
		obs.From(ctx).Counter("serve/wal/append_errors").Inc()
		return err
	}
	w.buf = appendBatchPayload(w.buf[:0], id, rows)
	if err := w.j.Append(w.buf); err != nil {
		obs.From(ctx).Counter("serve/wal/append_errors").Inc()
		return fmt.Errorf("serve: WAL append: %w", err)
	}
	w.rows += int64(len(rows))
	obs.From(ctx).Counter("serve/wal/appends").Inc()
	return nil
}

// Sync makes every appended record durable. Group commit: the ingest loop
// appends a whole batch group, then syncs once and acks them together.
func (w *WAL) Sync(ctx context.Context) error {
	if err := chaos.Maybe(ctx, chaos.SiteWALSync); err != nil {
		obs.From(ctx).Counter("serve/wal/sync_errors").Inc()
		return err
	}
	if err := w.j.Sync(); err != nil {
		obs.From(ctx).Counter("serve/wal/sync_errors").Inc()
		return fmt.Errorf("serve: WAL sync: %w", err)
	}
	obs.From(ctx).Counter("serve/wal/fsyncs").Inc()
	return nil
}

// Rows returns the total rows framed in this generation, replayed included.
func (w *WAL) Rows() int64 { return w.rows }

// BaseRow returns the snapshot row offset this generation starts at.
func (w *WAL) BaseRow() uint64 { return w.baseRow }

// Size returns the current end offset — header plus intact records.
func (w *WAL) Size() int64 { return w.j.Size() }

// Reset replaces the log with an empty generation starting at baseRow.
// Called after a snapshot has been durably persisted: every logged row is
// now in the snapshot, so the records are dead weight. The swap is an
// atomic replace (journal.Replace) — a crash before the rename leaves the
// old log intact, and replay's skip window already handles a snapshot
// newer than the log's baseRow, so there is no unsafe ordering.
func (w *WAL) Reset(baseRow uint64) error {
	fresh, err := journal.Replace(w.path, walTag, walHeader(w.n, baseRow))
	if err != nil {
		return fmt.Errorf("serve: reset WAL: %w", err)
	}
	w.j.Close() // the old generation is superseded by the durable snapshot
	w.j = fresh
	w.baseRow = baseRow
	w.rows = 0
	return nil
}

// Close syncs and closes the file.
func (w *WAL) Close() error {
	if err := w.j.Sync(); err != nil {
		w.j.Close()
		return fmt.Errorf("serve: close WAL: %w", err)
	}
	if err := w.j.Close(); err != nil {
		return fmt.Errorf("serve: close WAL: %w", err)
	}
	return nil
}
