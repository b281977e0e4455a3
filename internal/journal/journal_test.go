package journal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeJournal creates a journal at path holding recs and returns its bytes.
func writeJournal(t testing.TB, path, tag string, recs ...[]byte) []byte {
	t.Helper()
	w, err := Create(path, tag)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// collect opens path and returns every replayed record (copied).
func collect(path, tag string, strict bool) ([][]byte, *Warning, error) {
	var recs [][]byte
	w, warn, err := Open(path, tag, strict, func(rec []byte) error {
		recs = append(recs, bytes.Clone(rec))
		return nil
	})
	if err == nil {
		err = w.Close()
	}
	return recs, warn, err
}

func TestRoundTripAndAppendAfterOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	recs := [][]byte{[]byte("alpha"), {}, bytes.Repeat([]byte{7}, 1000)}
	writeJournal(t, path, "test", recs...)
	got, warn, err := collect(path, "test", true)
	if err != nil || warn != nil || !reflect.DeepEqual(got, recs) {
		t.Fatalf("replay = %q, %v, %v", got, warn, err)
	}
	w, _, err := Open(path, "test", true, func([]byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("omega")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got, _, err = collect(path, "test", true)
	if err != nil || len(got) != 4 || string(got[3]) != "omega" {
		t.Fatalf("after append: %q, %v", got, err)
	}
}

// TestTornTailEveryCut cuts the file at every byte inside the last frame:
// strict open refuses and leaves the bytes alone, lenient open keeps the
// intact prefix, reports a torn tail at the frame's offset, and truncates.
func TestTornTailEveryCut(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "full")
	first := writeJournal(t, path, "test", []byte("one"))
	full := writeJournal(t, path, "test", []byte("one"), []byte("two-two"))
	good := int64(len(first))
	for cut := good + 1; cut < int64(len(full)); cut++ {
		torn := filepath.Join(dir, "torn")
		os.WriteFile(torn, full[:cut], 0o644)
		if _, _, err := collect(torn, "test", true); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut %d: strict err = %v, want ErrCorrupt", cut, err)
		}
		if b, _ := os.ReadFile(torn); int64(len(b)) != cut {
			t.Fatalf("cut %d: strict open modified the file", cut)
		}
		got, warn, err := collect(torn, "test", false)
		if err != nil || len(got) != 1 || warn == nil || !warn.Torn || warn.Offset != good || warn.Dropped != cut-good {
			t.Fatalf("cut %d: lenient = %q, %+v, %v", cut, got, warn, err)
		}
		if b, _ := os.ReadFile(torn); int64(len(b)) != good {
			t.Fatalf("cut %d: torn tail not truncated (%d bytes)", cut, len(b))
		}
	}
}

// TestMidFileDamage flips one payload byte of the first of two frames: the
// damage is classified mid-file, a lenient open drops everything from it
// on, and a strict open refuses.
func TestMidFileDamage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	data := writeJournal(t, path, "test", []byte("first"), []byte("second"))
	data[HeaderSize+frameSize+1] ^= 0x01
	os.WriteFile(path, data, 0o644)
	if _, _, err := collect(path, "test", true); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("strict err = %v, want ErrCorrupt", err)
	}
	got, warn, err := collect(path, "test", false)
	if err != nil || len(got) != 0 || warn == nil || warn.Torn || warn.Offset != HeaderSize {
		t.Fatalf("lenient = %q, %+v, %v", got, warn, err)
	}
	if want := "mid-file damage at byte 20"; warn.String()[:len(want)] != want {
		t.Fatalf("warning %q", warn)
	}
}

func TestHeaderChecks(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j")
	data := writeJournal(t, path, "test", []byte("x"))
	if _, _, err := collect(path, "other", false); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tag mismatch err = %v", err)
	}
	for name, c := range map[string]struct {
		data []byte
		want error
	}{
		"jsonl":   {[]byte(`{"type":"header","version":1}` + "\n"), ErrOldFormat},
		"old wal": {[]byte("TENDSWAL\x01\x00\x00\x00"), ErrOldFormat},
		"v1":      {append(append([]byte(magic), 1, 0, 0, 0), data[12:]...), ErrOldFormat},
		"empty":   {nil, ErrCorrupt},
		"short":   {data[:HeaderSize-1], ErrCorrupt},
		"garbage": {bytes.Repeat([]byte{0xab}, 64), ErrCorrupt},
	} {
		os.WriteFile(path, c.data, 0o644)
		if _, _, err := collect(path, "test", false); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", name, err, c.want)
		}
	}
}

// A zero-filled tail must not read as valid empty records.
func TestZeroTailIsDamage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	data := writeJournal(t, path, "test", []byte("x"))
	os.WriteFile(path, append(data, make([]byte, 64)...), 0o644)
	got, warn, err := collect(path, "test", false)
	if err != nil || len(got) != 1 || warn == nil {
		t.Fatalf("zero tail: %q, %+v, %v", got, warn, err)
	}
}

func TestReplace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	writeJournal(t, path, "test", []byte("old"))
	w, err := Replace(path, "test", []byte("new"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("more")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got, _, err := collect(path, "test", true)
	if err != nil || !reflect.DeepEqual(got, [][]byte{[]byte("new"), []byte("more")}) {
		t.Fatalf("after replace: %q, %v", got, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("tmp file left behind: %v", err)
	}
}

func TestReadLeavesFileAlone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	data := writeJournal(t, path, "test", []byte("a"))
	os.WriteFile(path, append(data, 1, 2, 3), 0o644)
	warn, err := Read(path, "test", false, func([]byte) error { return nil })
	if err != nil || warn == nil || !warn.Torn {
		t.Fatalf("read = %+v, %v", warn, err)
	}
	if b, _ := os.ReadFile(path); len(b) != len(data)+3 {
		t.Fatal("Read modified the file")
	}
	if _, err := Read(path, "test", true, func([]byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("strict read err = %v", err)
	}
	stop := fmt.Errorf("stop")
	if _, err := Read(path, "test", false, func([]byte) error { return stop }); err != stop {
		t.Fatalf("callback error = %v, want it returned as is", err)
	}
}

func TestAppendAllocs(t *testing.T) {
	w, err := Create(filepath.Join(t.TempDir(), "j"), "test")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rec := make([]byte, 256)
	w.Append(rec)
	if n := testing.AllocsPerRun(100, func() { w.Append(rec) }); n != 0 {
		t.Fatalf("Append allocates %v times per record", n)
	}
}

// FuzzJournalOpen appends arbitrary bytes after a valid header (and, in
// some seeds, valid frames). A lenient open never errors, its warning
// offsets stay inside the file, and the file it heals passes a strict open
// with the same records. A strict open of the original errors exactly
// when the lenient one warns, and never modifies the file.
func FuzzJournalOpen(f *testing.F) {
	dir := f.TempDir()
	seed := writeJournal(f, filepath.Join(dir, "seed"), "fuzz", []byte("abc"), []byte(`{"node":1,"parents":[2]}`))
	f.Add(seed[HeaderSize:])
	f.Add(seed[HeaderSize : len(seed)-3])
	f.Add([]byte{})
	f.Add(make([]byte, 16))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, tail []byte) {
		path := filepath.Join(t.TempDir(), "j")
		data := append(seed[:HeaderSize:HeaderSize], tail...)
		os.WriteFile(path, data, 0o644)

		_, strictWarn, strictErr := collect(path, "fuzz", true)
		if b, _ := os.ReadFile(path); !bytes.Equal(b, data) {
			t.Fatal("strict open modified the file")
		}
		recs, warn, err := collect(path, "fuzz", false)
		if err != nil {
			t.Fatalf("lenient open errored on garbage after the header: %v", err)
		}
		if (warn != nil) != (strictErr != nil) || (strictErr != nil && !errors.Is(strictErr, ErrCorrupt)) {
			t.Fatalf("strict err %v disagrees with lenient warning %v", strictErr, warn)
		}
		if !reflect.DeepEqual(warn, strictWarn) {
			t.Fatalf("strict warning %+v, lenient %+v", strictWarn, warn)
		}
		if warn != nil && (warn.Offset < HeaderSize || warn.Offset >= int64(len(data)) ||
			warn.Offset+warn.Dropped != int64(len(data))) {
			t.Fatalf("warning %+v outside the %d-byte file", warn, len(data))
		}
		healed, warn2, err := collect(path, "fuzz", true)
		if err != nil || warn2 != nil {
			t.Fatalf("healed file fails strict open: %v", err)
		}
		if !reflect.DeepEqual(healed, recs) {
			t.Fatalf("healed file replays %d records, lenient open saw %d", len(healed), len(recs))
		}
	})
}
