package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"tends/internal/journal"
	"tends/internal/obs"
)

// writeFile writes data to a fresh file in a test directory.
func writeFile(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// flipParentDigit flips the last digit of the first parent id in the
// first non-final node record that has parents. The JSON still parses and
// still names an owned node with in-range parents, so only the checksum
// can catch the change. It returns the damaged copy and the offset of the
// damaged record's frame.
func flipParentDigit(t *testing.T, data []byte, starts []int) ([]byte, int) {
	t.Helper()
	const key = `"parents":[`
	for k := 1; k < len(starts)-2; k++ {
		i := bytes.Index(data[starts[k]:starts[k+1]], []byte(key))
		at := starts[k] + i + len(key)
		if i < 0 || data[at] == ']' {
			continue
		}
		for data[at+1] >= '0' && data[at+1] <= '9' {
			at++
		}
		data = bytes.Clone(data)
		data[at] ^= 0x01
		return data, starts[k]
	}
	t.Fatal("no non-final node record with parents to damage")
	return nil, 0
}

// TestLoadShardJournalTornTail checks the torn-tail/corruption distinction:
// a record cut off at the end of the file keeps the records before it, a
// damaged record with records after it refuses the journal, and strict
// mode refuses both with the byte position. Loading never modifies the
// file.
func TestLoadShardJournalTornTail(t *testing.T) {
	cfg := ScaleConfig{N: 30, Beta: 48, Seeds: 2, Seed: 7}
	full, starts := frameStarts(t, shardJournalFile(t, cfg, 0, 2))
	last := starts[len(starts)-2]

	// A kill mid-append leaves a partial final record.
	torn := writeFile(t, "torn.journal", full[:last+5])
	h, nodes, warn, err := LoadShardJournal(torn, false)
	if err != nil || h == nil {
		t.Fatalf("lenient load of torn journal failed: %v", err)
	}
	if warn == nil || !warn.Torn || warn.Offset != int64(last) {
		t.Fatalf("torn tail not classified: %+v", warn)
	}
	if len(nodes) != ShardOwnedNodes(cfg.N, 0, 2)-1 {
		t.Fatalf("torn journal kept %d nodes, want %d", len(nodes), ShardOwnedNodes(cfg.N, 0, 2)-1)
	}
	if b, _ := os.ReadFile(torn); len(b) != last+5 {
		t.Fatal("load modified the journal")
	}

	// Damage with records after it is corruption, in either mode.
	flipped, at := flipParentDigit(t, full, starts)
	mid := writeFile(t, "mid.journal", flipped)
	for _, strict := range []bool{false, true} {
		_, _, warn, err = LoadShardJournal(mid, strict)
		if !errors.Is(err, ErrJournalCorrupt) || warn == nil || warn.Torn || warn.Offset != int64(at) ||
			!strings.Contains(err.Error(), fmt.Sprintf("mid-file damage at byte %d", at)) {
			t.Fatalf("strict=%v: mid-file damage: warn %+v, err %v", strict, warn, err)
		}
	}

	// Strict mode refuses the torn tail with its position.
	_, _, _, err = LoadShardJournal(torn, true)
	if !errors.Is(err, ErrJournalCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("torn tail at byte %d", last)) {
		t.Fatalf("strict load error = %v, want ErrJournalCorrupt with byte offset", err)
	}
}

// TestReadShardHeader checks the header record every shard journal load
// reads first: its identity round-trips, and a journal without one, one
// whose first record is a node, one with an invalid identity, or one in
// the old JSONL format is refused.
func TestReadShardHeader(t *testing.T) {
	cfg := ScaleConfig{N: 20, Beta: 16, Seeds: 2, Seed: 3}
	h, _, _, err := LoadShardJournal(shardJournalFile(t, cfg, 1, 2), true)
	if err != nil {
		t.Fatal(err)
	}
	if h.ShardIndex != 1 || h.ShardCount != 2 || h.N != 20 || h.Beta != 16 || h.Seed != 3 {
		t.Fatalf("header = %+v", h)
	}
	raw := func(recs ...string) string {
		path := filepath.Join(t.TempDir(), "raw.journal")
		w, err := journal.Create(path, shardTag)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			w.Append([]byte(r))
		}
		w.Close()
		return path
	}
	for name, path := range map[string]string{
		"header only":      raw(),
		"node first":       raw(`{"node":1,"parents":[]}`),
		"invalid identity": raw(`{"shard_index":2,"shard_count":2,"n":5}`),
	} {
		if _, _, _, err := LoadShardJournal(path, false); !errors.Is(err, ErrJournalCorrupt) {
			t.Errorf("%s: err = %v, want ErrJournalCorrupt", name, err)
		}
	}
	old := writeFile(t, "old.jsonl", []byte(`{"type":"shard_header","version":1,"shard_index":0,"shard_count":1,"n":5}`+"\n"))
	if _, _, _, err := LoadShardJournal(old, false); !errors.Is(err, journal.ErrOldFormat) {
		t.Fatalf("old JSONL journal: err = %v, want ErrOldFormat", err)
	}
}

// TestOpenShardResume checks the on-disk continuation path: a torn tail is
// truncated away and appending afterwards yields journal bytes identical to
// an uninterrupted run.
func TestOpenShardResume(t *testing.T) {
	cfg := ScaleConfig{N: 30, Beta: 48, Seeds: 2, Seed: 7}
	fullPath := shardJournalFile(t, cfg, 0, 2)
	full, starts := frameStarts(t, fullPath)
	if len(starts) < 5 {
		t.Fatalf("journal too short to cut: %d records", len(starts)-1)
	}

	// Keep the header and all but the last two nodes, then a torn fragment.
	keep := starts[len(starts)-3]
	path := writeFile(t, "shard-0.journal", full[:keep+6])
	rs, err := OpenShardResume(path)
	if err != nil {
		t.Fatal(err)
	}
	if rs.TruncatedBytes != 6 {
		t.Fatalf("TruncatedBytes = %d, want 6", rs.TruncatedBytes)
	}
	// Append the two missing node records from the full journal, in the
	// ascending order it wrote them, for byte identity.
	_, allNodes, _, err := LoadShardJournal(fullPath, true)
	if err != nil {
		t.Fatal(err)
	}
	var missing []int
	for n := range allNodes {
		if _, ok := rs.Nodes[n]; !ok {
			missing = append(missing, n)
		}
	}
	if len(missing) != 2 {
		t.Fatalf("resume found %d missing nodes, want 2", len(missing))
	}
	slices.Sort(missing)
	for _, n := range missing {
		if err := rs.Journal.AppendNode(n, allNodes[n]); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, full) {
		t.Fatal("resumed journal is not byte-identical to an uninterrupted one")
	}

	// Corruption beyond a torn tail refuses to resume.
	flipped, _ := flipParentDigit(t, full, starts)
	for name, bad := range map[string][]byte{
		"mid-file damage": flipped,
		"not a journal":   append([]byte("garbage not json\n"), full...),
		"header only":     full[:journal.HeaderSize],
	} {
		if _, err := OpenShardResume(writeFile(t, "bad.journal", bad)); !errors.Is(err, ErrJournalCorrupt) {
			t.Fatalf("%s: resume error = %v, want ErrJournalCorrupt", name, err)
		}
	}
	if _, err := OpenShardResume(filepath.Join(t.TempDir(), "absent.journal")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("absent journal resume error = %v, want ErrNotExist", err)
	}
}

// sameJournal reports how the shard journal at got differs from the one at
// want, or "" when it does not. Content is what the resume contract
// promises: the header, and each owned node journaled exactly once with the
// same parents. Record order is not part of it — search workers journal
// nodes in completion order, so two clean runs may order the same records
// differently, and the merge sorts them.
func sameJournal(t *testing.T, got, want string) string {
	t.Helper()
	decode := func(path string) (*ShardHeader, map[int][]int, int) {
		h, nodes, warn, err := LoadShardJournal(path, true)
		if err != nil || warn != nil {
			t.Fatalf("journal does not load cleanly: %v %v", err, warn)
		}
		_, starts := frameStarts(t, path)
		return h, nodes, len(starts) - 1
	}
	gh, gn, grecs := decode(got)
	wh, wn, wrecs := decode(want)
	switch {
	case *gh != *wh:
		return fmt.Sprintf("header %+v, want %+v", *gh, *wh)
	case grecs != wrecs:
		return fmt.Sprintf("%d records, want %d", grecs, wrecs)
	case !maps.EqualFunc(gn, wn, slices.Equal[[]int]):
		return fmt.Sprintf("node parents %v, want %v", gn, wn)
	}
	return ""
}

// TestRunShardWorkerResume checks the worker-level contract the supervisor
// depends on: a shard whose journal was cut mid-run continues node-for-node
// and ends with the same header and node records as an uninterrupted worker
// run, and a journal with mid-file damage restarts fresh.
func TestRunShardWorkerResume(t *testing.T) {
	cfg := ScaleConfig{N: 30, Beta: 24, Seeds: 2, Seed: 7, ShardIndex: 1, ShardCount: 3}
	dir := t.TempDir()

	clean := filepath.Join(dir, "clean.journal")
	if _, err := RunShardWorker(context.Background(), cfg, clean, false); err != nil {
		t.Fatal(err)
	}
	want, starts := frameStarts(t, clean)

	// A "killed" worker: the clean journal cut after three records (the
	// header and two nodes), with a torn fragment of the fourth.
	resumed := writeFile(t, "resumed.journal", want[:starts[3]+4])
	res, err := RunShardWorker(context.Background(), cfg, resumed, true)
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameJournal(t, resumed, clean); diff != "" {
		t.Fatalf("resumed worker journal differs from an uninterrupted run: %s", diff)
	}

	// The in-memory result folds the resumed nodes back in: compare to a
	// plain shard run.
	plain, err := RunScale(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Inference.Graph.Equal(plain.Inference.Graph) {
		t.Fatal("resumed worker topology differs from a plain shard run")
	}

	// Mid-file damage — a byte flip after which the JSON still parses —
	// self-heals: the worker restarts fresh, counts it, and still produces
	// the same journal content.
	flipped, _ := flipParentDigit(t, want, starts)
	corrupt := writeFile(t, "corrupt.journal", flipped)
	ccfg := cfg
	ccfg.Obs = obs.New()
	if _, err := RunShardWorker(context.Background(), ccfg, corrupt, true); err != nil {
		t.Fatal(err)
	}
	if got := ccfg.Obs.Snapshot().Counters["scale/resume/corrupt_restart"]; got != 1 {
		t.Fatalf("scale/resume/corrupt_restart = %d, want 1", got)
	}
	if diff := sameJournal(t, corrupt, clean); diff != "" {
		t.Fatalf("self-healed worker journal differs from an uninterrupted run: %s", diff)
	}
}

// TestMergeShardJournalsDegraded checks the degraded merge's accounting:
// missing shards yield exactly their owned nodes as missing, duplicates must
// agree, and MergedNodes + missing always balances to N.
func TestMergeShardJournalsDegraded(t *testing.T) {
	cfg := ScaleConfig{N: 21, Beta: 16, Seeds: 2, Seed: 3}
	k := 3
	var headers []*ShardHeader
	var nodeSets []map[int][]int
	for shard := 0; shard < k; shard++ {
		h, nodes, _, err := LoadShardJournal(shardJournalFile(t, cfg, shard, k), true)
		if err != nil {
			t.Fatal(err)
		}
		headers = append(headers, h)
		nodeSets = append(nodeSets, nodes)
	}

	// Complete set: report says so.
	_, _, rep, err := MergeShardJournalsDegraded(headers, nodeSets)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete || rep.MergedNodes != cfg.N || len(rep.MissingNodes) != 0 {
		t.Fatalf("complete merge report: %+v", rep)
	}

	// Drop shard 1: its owned nodes are exactly the missing set.
	parents, _, rep, err := MergeShardJournalsDegraded(
		[]*ShardHeader{headers[0], headers[2]}, []map[int][]int{nodeSets[0], nodeSets[2]})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete {
		t.Fatal("degraded merge reported complete")
	}
	if len(rep.MissingShards) != 1 || rep.MissingShards[0] != 1 {
		t.Fatalf("missing shards = %v, want [1]", rep.MissingShards)
	}
	if rep.MergedNodes+len(rep.MissingNodes) != rep.N {
		t.Fatalf("accounting does not balance: %d merged + %d missing != %d", rep.MergedNodes, len(rep.MissingNodes), rep.N)
	}
	for i, n := range rep.MissingNodes {
		if n%k != 1 {
			t.Fatalf("missing node %d does not belong to shard 1", n)
		}
		if i > 0 && rep.MissingNodes[i-1] >= n {
			t.Fatalf("missing nodes not ascending: %v", rep.MissingNodes)
		}
		if len(parents[n]) != 0 {
			t.Fatalf("missing node %d has parents %v", n, parents[n])
		}
	}
	if len(rep.MissingNodes) != ShardOwnedNodes(cfg.N, 1, k) {
		t.Fatalf("%d missing nodes, shard 1 owns %d", len(rep.MissingNodes), ShardOwnedNodes(cfg.N, 1, k))
	}

	// Duplicate journals (a hedge and its primary) agree: tolerated.
	if _, _, rep, err = MergeShardJournalsDegraded(
		[]*ShardHeader{headers[0], headers[0], headers[1], headers[2]},
		[]map[int][]int{nodeSets[0], nodeSets[0], nodeSets[1], nodeSets[2]}); err != nil {
		t.Fatalf("agreeing duplicates rejected: %v", err)
	} else if !rep.Complete {
		t.Fatalf("duplicate merge report: %+v", rep)
	}

	// Disagreeing duplicates are a hard error.
	bad := map[int][]int{}
	for n, ps := range nodeSets[0] {
		bad[n] = ps
	}
	for n := range bad {
		bad[n] = append([]int{19}, bad[n]...)
		break
	}
	if _, _, _, err := MergeShardJournalsDegraded(
		[]*ShardHeader{headers[0], headers[0]}, []map[int][]int{nodeSets[0], bad}); err == nil || !strings.Contains(err.Error(), "disagree") {
		t.Fatalf("disagreeing duplicates accepted: %v", err)
	}

	// A truncated journal degrades (its absent nodes go missing) instead of
	// erroring like the strict merge.
	short := map[int][]int{}
	for n, ps := range nodeSets[1] {
		short[n] = ps
	}
	for n := range short {
		delete(short, n)
		break
	}
	_, _, rep, err = MergeShardJournalsDegraded(headers, []map[int][]int{nodeSets[0], short, nodeSets[2]})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete || len(rep.MissingNodes) != 1 || rep.MergedNodes != cfg.N-1 {
		t.Fatalf("truncated-journal report: %+v", rep)
	}
}
