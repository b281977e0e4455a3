package experiments

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"tends/internal/journal"
)

// newTestJournal starts a checkpoint journal in a test directory.
func newTestJournal(t *testing.T, seed int64, repeats int) (*Journal, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := NewJournal(path, seed, repeats)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j, path
}

// loadJournal reopens a checkpoint journal and closes it again.
func loadJournal(path string, strict bool) (*JournalHeader, map[CellKey]Measurement, *journal.Warning, error) {
	j, h, cells, warn, err := OpenJournal(path, strict)
	if err == nil {
		err = j.Close()
	}
	return h, cells, warn, err
}

// writeRawJournal writes a checkpoint journal of hand-made JSON records.
func writeRawJournal(t *testing.T, recs ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "raw.journal")
	w, err := journal.Create(path, checkpointTag)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append([]byte(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadJournalSkipsCorruptLines checks the lenient reopen: intact cells
// are restored, and a damaged record (here a byte flip that would still
// parse as JSON, in the middle of the file) is dropped with everything
// after it, reported with its byte offset, and truncated away so the
// resumed run appends on a record boundary.
func TestLoadJournalSkipsCorruptLines(t *testing.T) {
	j, path := newTestJournal(t, 7, 3)
	good := Measurement{Figure: "Fig1", Point: "n=200", Algorithm: AlgoTENDS,
		F: 0.875, FStd: 0.01, Precision: 0.9, Recall: 0.85, Runtime: 1234 * time.Millisecond, Completed: 3}
	if err := j.Append(0, good); err != nil {
		t.Fatal(err)
	}
	failed := Measurement{Figure: "Fig1", Point: "n=200", Algorithm: AlgoNetRate,
		FailedRepeats: 3, Err: errors.New("injected, with comma")}
	if err := j.Append(0, failed); err != nil {
		t.Fatal(err)
	}
	cleanLen := j.w.Size()
	if err := j.Append(1, Measurement{Figure: "Fig1", Point: "n=400", Algorithm: AlgoTENDS, F: 0.25}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(2, Measurement{Figure: "Fig1", Point: "n=600", Algorithm: AlgoTENDS, F: 0.5}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	data, _ := os.ReadFile(path)
	// Flip "0.25" to "0.35" inside the third cell record.
	k := strings.Index(string(data[cleanLen:]), "0.25")
	if k < 0 {
		t.Fatal("third cell's F not found")
	}
	data[cleanLen+int64(k)+2] ^= 0x01
	os.WriteFile(path, data, 0o644)

	header, cells, warn, err := loadJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if header.Seed != 7 || header.Repeats != 3 {
		t.Fatalf("header = %+v", header)
	}
	if warn == nil || warn.Torn || warn.Offset != cleanLen || warn.Dropped != int64(len(data))-cleanLen {
		t.Fatalf("warning = %+v, want mid-file damage at byte %d", warn, cleanLen)
	}
	if !strings.Contains(warn.String(), "mid-file damage at byte") {
		t.Fatalf("warning %q does not say where or what", warn)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(cells))
	}
	got := cells[CellKey{Figure: "Fig1", PointIndex: 0, Algorithm: AlgoTENDS}]
	if got.F != good.F || got.FStd != good.FStd || got.Precision != good.Precision ||
		got.Recall != good.Recall || got.Runtime != good.Runtime || got.Completed != good.Completed {
		t.Fatalf("cell round-trip: got %+v, want %+v", got, good)
	}
	gotFailed := cells[CellKey{Figure: "Fig1", PointIndex: 0, Algorithm: AlgoNetRate}]
	if gotFailed.Err == nil || gotFailed.Err.Error() != "injected, with comma" {
		t.Fatalf("error round-trip: %v", gotFailed.Err)
	}
	// The damage was truncated: the healed file loads strictly.
	if _, cells, warn, err := loadJournal(path, true); err != nil || warn != nil || len(cells) != 2 {
		t.Fatalf("healed journal: cells=%d warn=%v err=%v", len(cells), warn, err)
	}
}

// TestLoadJournalRejectsHeaderProblems covers the always-hard errors: a
// missing header, records that pass their checksum but do not decode as
// what they claim to be, and a file in the old JSONL format.
func TestLoadJournalRejectsHeaderProblems(t *testing.T) {
	cell := `{"figure":"Fig1","point_index":0,"algorithm":"TENDS"}`
	for name, recs := range map[string][]string{
		"empty":            nil,
		"cell as header":   {cell},
		"header as cell":   {`{"seed":1,"repeats":1}`, `{"seed":1,"repeats":1}`},
		"not json":         {`{"seed":1,"repeats":1}`, "not json"},
		"invalid identity": {`{"seed":1,"repeats":1}`, `{"figure":"","point_index":-2,"algorithm":""}`},
	} {
		_, cells, _, err := loadJournal(writeRawJournal(t, recs...), false)
		if !errors.Is(err, ErrJournalCorrupt) {
			t.Errorf("%s: err = %v (cells %v), want ErrJournalCorrupt", name, err, cells)
		}
	}
	old := filepath.Join(t.TempDir(), "old.jsonl")
	os.WriteFile(old, []byte(`{"type":"header","version":1,"seed":1,"repeats":1}`+"\n"), 0o644)
	if _, _, _, err := loadJournal(old, false); !errors.Is(err, journal.ErrOldFormat) || !strings.Contains(err.Error(), "old format") {
		t.Fatalf("old JSONL journal: err = %v, want an old-format error", err)
	}
}

// TestLoadJournalStrict checks the strict/lenient policy split the journal
// shares with the service WAL: lenient truncates damage and reports its
// position, strict refuses with ErrJournalCorrupt and leaves the file alone.
func TestLoadJournalStrict(t *testing.T) {
	j, path := newTestJournal(t, 1, 1)
	if err := j.Append(0, Measurement{Figure: "Fig1", Point: "p", Algorithm: AlgoTENDS, F: 0.5}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// A clean journal loads identically in both modes.
	if _, cells, warn, err := loadJournal(path, true); err != nil || warn != nil || len(cells) != 1 {
		t.Fatalf("strict load of clean journal: cells=%d warn=%v err=%v", len(cells), warn, err)
	}

	data, _ := os.ReadFile(path)
	torn := append(data, 40, 0, 0, 0, 1, 2) // a frame cut off mid-append
	os.WriteFile(path, torn, 0o644)
	_, _, _, err := loadJournal(path, true)
	if !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("strict load of torn journal: err = %v, want ErrJournalCorrupt", err)
	}
	if want := "torn tail at byte " + strconv.Itoa(len(data)); !strings.Contains(err.Error(), want) {
		t.Fatalf("strict error %q does not say %q", err, want)
	}
	if after, _ := os.ReadFile(path); len(after) != len(torn) {
		t.Fatal("strict load modified the journal")
	}
	// The same journal remains loadable leniently.
	if _, cells, warn, err := loadJournal(path, false); err != nil || warn == nil || !warn.Torn || len(cells) != 1 {
		t.Fatalf("lenient load of torn journal: cells=%d warn=%v err=%v", len(cells), warn, err)
	}
}

func TestLoadJournalLastRecordWins(t *testing.T) {
	j, path := newTestJournal(t, 1, 1)
	key := CellKey{Figure: "Fig1", PointIndex: 0, Algorithm: AlgoTENDS}
	if err := j.Append(0, Measurement{Figure: "Fig1", Point: "p", Algorithm: AlgoTENDS, F: 0.1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(0, Measurement{Figure: "Fig1", Point: "p", Algorithm: AlgoTENDS, F: 0.9}); err != nil {
		t.Fatal(err)
	}
	_, cells, _, err := loadJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if cells[key].F != 0.9 {
		t.Fatalf("later record should win: F = %v", cells[key].F)
	}
}

// writeFuzzJournal turns fuzz input into a journal file with the given
// tag: every newline-terminated line of data becomes one intact record, and
// the bytes after the last newline are appended raw, so they read as a
// damaged frame. It returns the path and the file's bytes.
func writeFuzzJournal(t *testing.T, tag string, data []byte) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fuzz.journal")
	w, err := journal.Create(path, tag)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(data, []byte("\n"))
	for _, line := range lines[:len(lines)-1] {
		if err := w.Append(line); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(lines[len(lines)-1]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, file
}

// FuzzLoadJournal feeds arbitrary records (and a raw damaged tail) to the
// checkpoint loader: malformed journals must come back as errors or a
// positioned warning, never a panic. Strict and lenient opens must agree on
// the policy, and the file a lenient open heals must reopen strictly with
// the same cells.
func FuzzLoadJournal(f *testing.F) {
	f.Add([]byte(`{"seed":1,"repeats":2}` + "\n" +
		`{"figure":"Fig1","point_index":0,"point":"n=200","algorithm":"TENDS","f":0.5,"completed":2}` + "\n"))
	f.Add([]byte(`{"figure":"Fig1"`))
	f.Add([]byte("\n\nnot json\n"))
	f.Add([]byte(`{"seed":1,"repeats":1}{"seed":1,"repeats":1}` + "\n" + `{"seed":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		path, file := writeFuzzJournal(t, checkpointTag, data)
		_, strictCells, _, strictErr := loadJournal(path, true)
		if b, _ := os.ReadFile(path); !bytes.Equal(b, file) {
			t.Fatal("strict load modified the journal")
		}
		header, cells, warn, err := loadJournal(path, false)
		if err != nil {
			if strictErr == nil {
				t.Fatalf("lenient load fails (%v) where strict passes", err)
			}
			return
		}
		if header == nil {
			t.Fatal("nil header without error")
		}
		for key := range cells {
			if key.Figure == "" || key.Algorithm == "" || key.PointIndex < 0 {
				t.Fatalf("invalid cell key survived validation: %+v", key)
			}
		}
		if warn != nil && (warn.Offset < journal.HeaderSize || warn.Offset+warn.Dropped != int64(len(file))) {
			t.Fatalf("warning %+v outside the %d-byte file", warn, len(file))
		}
		// Policy consistency: a journal the lenient load accepts without a
		// warning must load strictly too, and a warning must fail it.
		if warn == nil && strictErr != nil {
			t.Fatalf("warning-free journal fails strict load: %v", strictErr)
		}
		if warn != nil && !errors.Is(strictErr, ErrJournalCorrupt) {
			t.Fatalf("journal with warning %v: strict err = %v", warn, strictErr)
		}
		if warn == nil && !reflect.DeepEqual(strictCells, cells) {
			t.Fatalf("strict load restored %d cells, lenient %d", len(strictCells), len(cells))
		}
		// The lenient load truncated the damage: the healed file is clean.
		_, healed, warn2, err := loadJournal(path, true)
		if err != nil || warn2 != nil {
			t.Fatalf("healed journal fails strict load: warn=%v err=%v", warn2, err)
		}
		if !reflect.DeepEqual(healed, cells) {
			t.Fatalf("healed journal restores %d cells, lenient load saw %d", len(healed), len(cells))
		}
	})
}

// TestJournalPhaseRoundTrip checks that a cell's phase breakdown survives a
// journal write/load cycle, so a resumed run keeps its timing diagnostics.
func TestJournalPhaseRoundTrip(t *testing.T) {
	j, path := newTestJournal(t, 1, 1)
	m := Measurement{Figure: "Fig1", Point: "n=200", Algorithm: AlgoTENDS,
		F: 0.5, Runtime: 30 * time.Millisecond, Completed: 1,
		PhaseWorkload: 5 * time.Millisecond, PhaseInfer: 28 * time.Millisecond, PhaseMetrics: 2 * time.Millisecond}
	if err := j.Append(2, m); err != nil {
		t.Fatal(err)
	}
	_, cells, _, err := loadJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	got := cells[CellKey{Figure: "Fig1", PointIndex: 2, Algorithm: AlgoTENDS}]
	if got.PhaseWorkload != m.PhaseWorkload || got.PhaseInfer != m.PhaseInfer || got.PhaseMetrics != m.PhaseMetrics {
		t.Fatalf("phase round-trip: got %+v, want %+v", got, m)
	}
}
