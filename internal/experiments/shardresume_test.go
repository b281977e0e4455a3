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
)

// journalBytes runs one shard and returns its complete journal bytes.
func journalBytes(t *testing.T, cfg ScaleConfig, shard, k int) []byte {
	t.Helper()
	scfg := cfg
	scfg.ShardIndex, scfg.ShardCount = shard, k
	res, err := RunScale(context.Background(), scfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	hdr, err := ShardHeaderFor(scfg, res)
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewShardJournal(&buf, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteShardJournal(j, scfg, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadShardJournalTornTail checks the torn-tail/corruption distinction:
// an unparseable final line is recoverable (ShardResumeOffset reports where
// to truncate), mid-file damage is not, and strict mode hard-errors with the
// exact line and byte position either way.
func TestLoadShardJournalTornTail(t *testing.T) {
	cfg := ScaleConfig{N: 20, Beta: 16, Seeds: 2, Seed: 3}
	full := journalBytes(t, cfg, 0, 2)

	// A kill mid-append leaves a partial final line.
	cut := bytes.LastIndexByte(full[:len(full)-1], '\n') + 1
	torn := append(append([]byte(nil), full...)[:cut], []byte(`{"type":"node","no`)...)

	h, nodes, warnings, err := LoadShardJournal(bytes.NewReader(torn), false)
	if err != nil || h == nil {
		t.Fatalf("lenient load of torn journal failed: %v", err)
	}
	if len(warnings) != 1 || !strings.HasPrefix(warnings[0].Reason, "torn tail") {
		t.Fatalf("torn tail not classified: %v", warnings)
	}
	off, ok := ShardResumeOffset(warnings)
	if !ok || off != int64(cut) {
		t.Fatalf("ShardResumeOffset = (%d, %v), want (%d, true)", off, ok, cut)
	}
	if len(nodes) != ShardOwnedNodes(cfg.N, 0, 2)-1 {
		t.Fatalf("torn journal kept %d nodes, want %d", len(nodes), ShardOwnedNodes(cfg.N, 0, 2)-1)
	}

	// The same damage mid-file (records after it) is corruption, not a tail.
	mid := append(append([]byte(nil), torn...), '\n')
	mid = append(mid, full[cut:]...)
	_, _, warnings, err = LoadShardJournal(bytes.NewReader(mid), false)
	if err != nil {
		t.Fatalf("lenient load of mid-file damage: %v", err)
	}
	if _, ok := ShardResumeOffset(warnings); ok {
		t.Fatalf("mid-file damage misclassified as torn tail: %v", warnings)
	}

	// Strict mode refuses the damaged line with its position.
	_, _, _, err = LoadShardJournal(bytes.NewReader(torn), true)
	if !errors.Is(err, ErrJournalCorrupt) || !strings.Contains(err.Error(), "byte") {
		t.Fatalf("strict load error = %v, want ErrJournalCorrupt with byte offset", err)
	}
}

// TestReadShardHeader checks the cheap header peek used for up-front
// shard-set validation.
func TestReadShardHeader(t *testing.T) {
	cfg := ScaleConfig{N: 20, Beta: 16, Seeds: 2, Seed: 3}
	full := journalBytes(t, cfg, 1, 2)
	h, err := ReadShardHeader(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if h.ShardIndex != 1 || h.ShardCount != 2 || h.N != 20 {
		t.Fatalf("header = %+v", h)
	}
	if _, err := ReadShardHeader(strings.NewReader("")); err == nil {
		t.Fatal("empty journal accepted")
	}
	if _, err := ReadShardHeader(strings.NewReader(`{"type":"node","node":1}`)); err == nil || !strings.Contains(err.Error(), "shard_header") {
		t.Fatalf("node-first journal accepted: %v", err)
	}
	if _, err := ReadShardHeader(strings.NewReader(`{"type":"shard_header","version":999,"shard_index":0,"shard_count":1,"n":5}`)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version mismatch accepted: %v", err)
	}
}

// TestOpenShardResume checks the on-disk continuation path: a torn tail is
// truncated away and appending afterwards yields journal bytes identical to
// an uninterrupted run.
func TestOpenShardResume(t *testing.T) {
	cfg := ScaleConfig{N: 20, Beta: 16, Seeds: 2, Seed: 3}
	full := journalBytes(t, cfg, 0, 2)
	lines := bytes.Split(bytes.TrimSuffix(full, []byte("\n")), []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("journal too short to cut: %d lines", len(lines))
	}

	// Keep the header and all but the last two nodes, then a torn fragment.
	keep := bytes.Join(lines[:len(lines)-2], []byte("\n"))
	keep = append(keep, '\n')
	partial := append(append([]byte(nil), keep...), []byte(`{"type":"nod`)...)

	dir := t.TempDir()
	path := filepath.Join(dir, "shard-0.jsonl")
	if err := os.WriteFile(path, partial, 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err := OpenShardResume(path)
	if err != nil {
		t.Fatal(err)
	}
	if rs.TruncatedBytes != int64(len(partial)-len(keep)) {
		t.Fatalf("TruncatedBytes = %d, want %d", rs.TruncatedBytes, len(partial)-len(keep))
	}
	// Append the two missing node records by replaying the full journal's
	// records for nodes the partial set lacks.
	_, allNodes, _, err := LoadShardJournal(bytes.NewReader(full), true)
	if err != nil {
		t.Fatal(err)
	}
	missing := []int{}
	for n := range allNodes {
		if _, ok := rs.Nodes[n]; !ok {
			missing = append(missing, n)
		}
	}
	if len(missing) != 2 {
		t.Fatalf("resume found %d missing nodes, want 2", len(missing))
	}
	// The full journal appended nodes in ascending order; replay in the same
	// order for byte identity.
	if missing[0] > missing[1] {
		missing[0], missing[1] = missing[1], missing[0]
	}
	for _, n := range missing {
		if err := rs.Journal.AppendNode(n, allNodes[n]); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, full) {
		t.Fatal("resumed journal is not byte-identical to an uninterrupted one")
	}

	// Corruption beyond a torn tail refuses to resume.
	bad := append([]byte("garbage not json\n"), full...)
	badPath := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(badPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenShardResume(badPath); !errors.Is(err, ErrJournalCorrupt) {
		t.Fatalf("corrupt journal resume error = %v, want ErrJournalCorrupt", err)
	}
	if _, err := OpenShardResume(filepath.Join(dir, "absent.jsonl")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("absent journal resume error = %v, want ErrNotExist", err)
	}
}

// sameJournal reports how a shard journal's content differs from want's, or
// "" when it does not. Content is what the resume contract promises: the
// header, and each owned node journaled exactly once with the same parents.
// Record order is not part of it — search workers journal nodes in
// completion order, so two clean runs may order the same records
// differently, and the merge sorts them.
func sameJournal(t *testing.T, got, want []byte) string {
	t.Helper()
	decode := func(b []byte) (*ShardHeader, map[int][]int, int) {
		h, nodes, warnings, err := LoadShardJournal(bytes.NewReader(b), true)
		if err != nil || len(warnings) > 0 {
			t.Fatalf("journal does not load cleanly: %v %v", err, warnings)
		}
		return h, nodes, bytes.Count(b, []byte("\n"))
	}
	gh, gn, glines := decode(got)
	wh, wn, wlines := decode(want)
	switch {
	case *gh != *wh:
		return fmt.Sprintf("header %+v, want %+v", *gh, *wh)
	case glines != wlines:
		return fmt.Sprintf("%d records, want %d", glines, wlines)
	case !maps.EqualFunc(gn, wn, slices.Equal[[]int]):
		return fmt.Sprintf("node parents %v, want %v", gn, wn)
	}
	return ""
}

// TestRunShardWorkerResume checks the worker-level contract the supervisor
// depends on: a shard whose journal was cut mid-run continues node-for-node
// and ends with the same header and node records as an uninterrupted worker
// run.
func TestRunShardWorkerResume(t *testing.T) {
	cfg := ScaleConfig{N: 30, Beta: 24, Seeds: 2, Seed: 7, ShardIndex: 1, ShardCount: 3}
	dir := t.TempDir()

	clean := filepath.Join(dir, "clean.jsonl")
	if _, err := RunShardWorker(context.Background(), cfg, clean, false); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}

	// A "killed" worker: the clean journal cut after a few records, with a
	// torn fragment appended.
	lines := bytes.Split(bytes.TrimSuffix(want, []byte("\n")), []byte("\n"))
	keep := bytes.Join(lines[:3], []byte("\n"))
	keep = append(keep, '\n')
	partial := append(append([]byte(nil), keep...), []byte(`{"ty`)...)
	resumed := filepath.Join(dir, "resumed.jsonl")
	if err := os.WriteFile(resumed, partial, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := RunShardWorker(context.Background(), cfg, resumed, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameJournal(t, got, want); diff != "" {
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

	// Corrupt-beyond-torn-tail self-heals: the worker restarts fresh and
	// still produces the same journal content.
	corrupt := filepath.Join(dir, "corrupt.jsonl")
	if err := os.WriteFile(corrupt, append([]byte("garbage\n"), want[:40]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RunShardWorker(context.Background(), cfg, corrupt, true); err != nil {
		t.Fatal(err)
	}
	got, err = os.ReadFile(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameJournal(t, got, want); diff != "" {
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
		h, nodes, _, err := LoadShardJournal(bytes.NewReader(journalBytes(t, cfg, shard, k)), true)
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
