package serve

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"testing"
)

// FuzzBatchPayload feeds arbitrary bytes to the batch decoder. It must
// never panic or over-allocate, and anything it accepts must re-encode to
// the exact input — the codec admits only canonical encodings.
func FuzzBatchPayload(f *testing.F) {
	f.Add(appendBatchPayload(nil, 7, [][]int32{{0, 3, 9}, {}, {1}}))
	f.Add(appendBatchPayload(nil, 0, nil))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeBatchPayload(data, 64)
		if err != nil {
			return
		}
		re := appendBatchPayload(nil, b.id, b.rows)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted non-canonical payload: %x re-encodes to %x", data, re)
		}
	})
}

// FuzzWALReplay frames arbitrary bytes as one checksummed batch record
// after a valid WAL header, so the fuzzer reaches the WAL's record layer
// rather than its framing (internal/journal's FuzzJournalOpen covers
// that). Replay must apply the record whole, as one batch that re-encodes
// to exactly the input, or refuse it with ErrWALCorrupt without applying
// anything; strict and lenient replay must agree.
func FuzzWALReplay(f *testing.F) {
	f.Add(appendBatchPayload(nil, 1, [][]int32{{0, 5}, {2}}))
	f.Add(appendBatchPayload(nil, 2, [][]int32{{1, 2, 3}, {}}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, payload []byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		w, err := CreateWAL(path, 32, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.j.Append(payload); err != nil {
			t.Fatal(err)
		}
		w.Close()
		var accepted []bool
		for _, strict := range []bool{false, true} {
			var got []batch
			w2, st, err := OpenWAL(context.Background(), path, 32, strict, 0, nil,
				func(b batch) error { got = append(got, b); return nil })
			accepted = append(accepted, err == nil)
			if err != nil {
				if !errors.Is(err, ErrWALCorrupt) || len(got) != 0 {
					t.Fatalf("strict=%v: refused with %v after applying %d batches", strict, err, len(got))
				}
				continue
			}
			w2.Close()
			if len(got) != 1 || st.Truncated != 0 ||
				!bytes.Equal(appendBatchPayload(nil, got[0].id, got[0].rows), payload) {
				t.Fatalf("strict=%v: replayed %+v (stats %+v) from payload %x", strict, got, st, payload)
			}
		}
		if accepted[0] != accepted[1] {
			t.Fatalf("lenient accepted=%v, strict accepted=%v", accepted[0], accepted[1])
		}
	})
}
