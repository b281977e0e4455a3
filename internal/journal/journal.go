// Package journal is the one on-disk record format behind every durable
// artifact in the system: the benchfig checkpoint journal, the per-shard
// journals of a sharded scale run, the tendsd write-ahead log, and the
// tendsd snapshot. Callers own the payload encoding; the journal owns
// framing, checksums, torn-tail recovery, and atomic replacement.
//
// A journal file is a fixed header followed by framed records:
//
//	header: magic "TENDSJNL" | version u32 | format tag [8]byte (zero-padded)
//	frame:  len u32 | crc u32 | payload (len bytes)
//
// Integers are little endian. crc is CRC-32C (Castagnoli) over the four
// length bytes and the payload, so a zero-filled tail never reads as a run
// of valid empty records. Frames never reference each other: a reader
// replays the longest intact prefix, and everything from the first bad
// frame on is damage. A bad frame that runs to the end of the file is a
// torn tail, the normal state after a writer was killed mid-append; any
// other bad frame is mid-file damage. Either is reported as a Warning with
// its byte offset.
package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"
)

// Version is the journal format version. Version 1 was the pre-journal
// formats: JSONL checkpoint and shard journals, the "TENDSWAL" log, and
// the "TENDSNAP" snapshot. Those are refused with ErrOldFormat.
const Version = 2

// HeaderSize is the byte length of the file header. A file no longer than
// this holds no records.
const HeaderSize = 8 + 4 + 8

const (
	magic     = "TENDSJNL"
	frameSize = 8 // len u32 | crc u32
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	// ErrCorrupt marks a file whose bytes cannot be trusted: a bad header,
	// or (in strict mode) any damaged frame.
	ErrCorrupt = errors.New("journal corrupt")
	// ErrOldFormat marks a file written in a pre-journal format.
	ErrOldFormat = errors.New("journal in old format")
)

// Warning describes the first bad frame of a journal. Everything from
// Offset to the end of the file is unreadable.
type Warning struct {
	Offset  int64 // byte offset of the bad frame
	Dropped int64 // bytes from Offset to the end of the file
	Torn    bool  // the frame runs to the end of the file
	Reason  string
}

func (w *Warning) String() string {
	kind := "mid-file damage"
	if w.Torn {
		kind = "torn tail"
	}
	return fmt.Sprintf("%s at byte %d (%d bytes): %s", kind, w.Offset, w.Dropped, w.Reason)
}

func checksum(frame []byte) uint32 {
	return crc32.Update(crc32.Checksum(frame[:4], castagnoli), castagnoli, frame[frameSize:])
}

func checkHeader(data []byte, tag string) error {
	if len(data) < HeaderSize || string(data[:len(magic)]) != magic {
		for _, old := range []string{"{", "TENDSWAL", "TENDSNAP"} {
			if bytes.HasPrefix(data, []byte(old)) {
				return fmt.Errorf("%w: written before journal version %d; delete it and rerun", ErrOldFormat, Version)
			}
		}
		return fmt.Errorf("%w: no %d-byte %q header", ErrCorrupt, HeaderSize, magic)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != Version {
		if v < Version {
			return fmt.Errorf("%w: version %d, this build reads version %d", ErrOldFormat, v, Version)
		}
		return fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	if got := string(bytes.TrimRight(data[12:HeaderSize], "\x00")); got != tag {
		return fmt.Errorf("%w: holds %q records, want %q", ErrCorrupt, got, tag)
	}
	return nil
}

// Scan checks data's header against tag and calls fn on each intact
// record in order; rec aliases data. It returns the offset just past the
// last intact frame and, if a bad frame stopped the scan, a Warning. An
// error from fn stops the scan and is returned as is.
func Scan(data []byte, tag string, fn func(rec []byte) error) (int64, *Warning, error) {
	if err := checkHeader(data, tag); err != nil {
		return 0, nil, err
	}
	size := int64(len(data))
	off := int64(HeaderSize)
	for off < size {
		end, reason := size, "partial frame header"
		if size-off >= frameSize {
			end = off + frameSize + int64(binary.LittleEndian.Uint32(data[off:]))
			switch {
			case end > size:
				reason = fmt.Sprintf("frame of %d bytes runs past end of file", end-off)
			case checksum(data[off:end]) != binary.LittleEndian.Uint32(data[off+4:]):
				reason = "checksum mismatch"
			default:
				reason = ""
			}
		}
		if reason != "" {
			return off, &Warning{Offset: off, Dropped: size - off, Torn: end >= size, Reason: reason}, nil
		}
		if err := fn(data[off+frameSize : end]); err != nil {
			return off, nil, err
		}
		off = end
	}
	return off, nil, nil
}

// Read replays the intact records of the journal at path through fn
// without modifying the file. In strict mode a damaged frame is an error
// wrapping ErrCorrupt; otherwise it comes back as the Warning.
func Read(path, tag string, strict bool, fn func(rec []byte) error) (*Warning, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	_, warn, err := Scan(data, tag, fn)
	return warn, strictly(strict, warn, err)
}

// strictly turns a scan's warning into an error in strict mode.
func strictly(strict bool, warn *Warning, err error) error {
	if err == nil && warn != nil && strict {
		return fmt.Errorf("%w: %s", ErrCorrupt, warn)
	}
	return err
}

// Writer appends records to a journal file. Appends are safe for
// concurrent use and reach the file before Append returns, but are durable
// only after Sync.
type Writer struct {
	mu  sync.Mutex
	f   *os.File
	off int64 // end of the last good frame
	buf []byte
}

// Create starts an empty journal at path, truncating any existing file.
func Create(path, tag string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, HeaderSize)
	copy(hdr, magic)
	binary.LittleEndian.PutUint32(hdr[8:], Version)
	copy(hdr[12:], tag)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal header: %w", err)
	}
	return &Writer{f: f, off: HeaderSize}, nil
}

// Open replays the intact records of the journal at path through fn and
// returns a Writer positioned after the last intact frame. A damaged tail
// (torn or mid-file) is truncated away and the file synced, and the damage
// is returned as the Warning; in strict mode it is instead an error
// wrapping ErrCorrupt and the file is left untouched, as it is on any
// error from fn.
func Open(path, tag string, strict bool, fn func(rec []byte) error) (*Writer, *Warning, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	end, warn, err := Scan(data, tag, fn)
	if err := strictly(strict, warn, err); err != nil {
		f.Close()
		return nil, warn, err
	}
	if warn != nil {
		if err := f.Truncate(end); err != nil {
			f.Close()
			return nil, warn, fmt.Errorf("journal: truncate damaged tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, warn, fmt.Errorf("journal: sync truncated tail: %w", err)
		}
	}
	return &Writer{f: f, off: end}, warn, nil
}

// Append frames rec at the end of the journal. On a write error the file
// is rewound to the last good frame, so a partial frame never precedes
// later appends.
func (w *Writer) Append(rec []byte) error {
	if uint64(len(rec)) > math.MaxUint32 {
		return fmt.Errorf("journal: %d-byte record too large", len(rec))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = append(w.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0)
	w.buf = append(w.buf, rec...)
	binary.LittleEndian.PutUint32(w.buf, uint32(len(rec)))
	binary.LittleEndian.PutUint32(w.buf[4:], checksum(w.buf))
	if _, err := w.f.WriteAt(w.buf, w.off); err != nil {
		// If even the rewind fails, the file ends in a bad frame, which the
		// next lenient Open truncates.
		if terr := w.f.Truncate(w.off); terr != nil {
			return fmt.Errorf("journal append: %v (rewind failed: %w)", err, terr)
		}
		return fmt.Errorf("journal append: %w", err)
	}
	w.off += int64(len(w.buf))
	return nil
}

// Sync makes every appended record durable: one fsync for however many
// records were appended since the last Sync (group commit).
func (w *Writer) Sync() error { return w.f.Sync() }

// Size returns the end offset of the last good frame.
func (w *Writer) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.off
}

// Close closes the file without an fsync; call Sync first when the
// records must survive an OS crash.
func (w *Writer) Close() error { return w.f.Close() }

// Replace atomically swaps the file at path for a new journal holding
// recs: the records go to path+".tmp", which is fsynced, renamed over
// path, and made durable with a directory fsync. A crash at any point
// leaves either the old file or the new one, never a mix. The returned
// Writer appends to the new file.
func Replace(path, tag string, recs ...[]byte) (*Writer, error) {
	tmp := path + ".tmp"
	w, err := Create(tmp, tag)
	if err != nil {
		return nil, err
	}
	err = func() error {
		for _, rec := range recs {
			if err := w.Append(rec); err != nil {
				return err
			}
		}
		if err := w.Sync(); err != nil {
			return err
		}
		if err := os.Rename(tmp, path); err != nil {
			return err
		}
		d, err := os.Open(filepath.Dir(path))
		if err != nil {
			return err
		}
		defer d.Close()
		return d.Sync()
	}()
	if err != nil {
		w.f.Close()
		os.Remove(tmp)
		return nil, fmt.Errorf("journal: replace %s: %w", path, err)
	}
	return w, nil
}
