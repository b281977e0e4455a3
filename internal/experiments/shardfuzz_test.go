package experiments

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"testing"

	"tends/internal/journal"
)

// FuzzLoadShardJournal feeds arbitrary records (and a raw damaged tail) to
// the shard-journal loader: malformed journals must come back as errors or
// a positioned torn-tail warning, never a panic — and a journal the loader
// accepts must reopen for resume with the same nodes, truncating exactly
// the torn tail it reported.
func FuzzLoadShardJournal(f *testing.F) {
	f.Add([]byte(`{"shard_index":0,"shard_count":2,"n":10,"beta":8,"seed":3}` + "\n" +
		`{"node":0,"parents":[2,4]}` + "\n" +
		`{"node":2,"parents":[]}` + "\n"))
	f.Add([]byte(`{"shard_index":0,"shard_count":1,"n":4}` + "\n" + `{"node":1,"pa`))
	f.Add([]byte(`{"node":1,"parents":[]}`))
	f.Add([]byte("\n\nnot json\n"))
	f.Add([]byte(`{"shard_index":2,"shard_count":1,"n":4}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path, file := writeFuzzJournal(t, shardTag, data)
		header, nodes, warn, err := LoadShardJournal(path, false)
		_, _, _, strictErr := LoadShardJournal(path, true)
		if b, _ := os.ReadFile(path); !bytes.Equal(b, file) {
			t.Fatal("loading modified the shard journal")
		}
		if warn != nil && (warn.Offset < journal.HeaderSize || warn.Offset+warn.Dropped != int64(len(file))) {
			t.Fatalf("warning %+v outside the %d-byte file", warn, len(file))
		}
		if err != nil {
			if strictErr == nil {
				t.Fatalf("lenient load fails (%v) where strict passes", err)
			}
			return
		}
		if header == nil {
			t.Fatal("nil header without error")
		}
		if warn != nil && !warn.Torn {
			t.Fatalf("mid-file damage accepted: %v", warn)
		}
		for node, parents := range nodes {
			if node < 0 || node >= header.N {
				t.Fatalf("out-of-range node %d survived validation (n=%d)", node, header.N)
			}
			if node%header.ShardCount != header.ShardIndex {
				t.Fatalf("foreign node %d survived validation (shard %d/%d)", node, header.ShardIndex, header.ShardCount)
			}
			if parents == nil {
				t.Fatalf("node %d has nil parents", node)
			}
		}
		// Policy consistency with the checkpoint loader: a warning-free
		// lenient load must pass strict, and any warning must fail it.
		if warn == nil && strictErr != nil {
			t.Fatalf("warning-free journal fails strict load: %v", strictErr)
		}
		if warn != nil && !errors.Is(strictErr, ErrJournalCorrupt) {
			t.Fatalf("journal with warning %v: strict err = %v", warn, strictErr)
		}
		// Resume contract: the journal reopens with the same records, and
		// exactly the reported torn tail is cut.
		rs, err := OpenShardResume(path)
		if err != nil {
			t.Fatalf("loadable journal fails to resume: %v", err)
		}
		defer rs.Close()
		var torn int64
		if warn != nil {
			torn = warn.Dropped
		}
		if rs.TruncatedBytes != torn {
			t.Fatalf("resume truncated %d bytes, load reported a %d-byte torn tail", rs.TruncatedBytes, torn)
		}
		if *rs.Header != *header || !reflect.DeepEqual(rs.Nodes, nodes) {
			t.Fatalf("resume restored %+v with %d nodes, load saw %+v with %d", rs.Header, len(rs.Nodes), header, len(nodes))
		}
	})
}
