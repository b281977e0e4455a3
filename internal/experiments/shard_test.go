package experiments

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tends/internal/journal"
)

// writeShardJournal journals a finished shard run to path the way an
// uninterrupted worker would: the header, then every owned node in order.
func writeShardJournal(t *testing.T, path string, cfg ScaleConfig, res *ScaleResult) {
	t.Helper()
	cfg, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	count := max(cfg.ShardCount, 1)
	j, err := CreateShardJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.WriteHeader(ShardHeader{ShardIndex: cfg.ShardIndex, ShardCount: count, N: cfg.N,
		Beta: cfg.Beta, Seed: cfg.Seed, Threshold: res.Inference.Threshold}); err != nil {
		t.Fatal(err)
	}
	for i, parents := range res.Inference.Parents {
		if i%count == cfg.ShardIndex {
			if err := j.AppendNode(i, parents); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// shardJournalFile runs shard of k and returns the path of its complete
// journal.
func shardJournalFile(t *testing.T, cfg ScaleConfig, shard, k int) string {
	t.Helper()
	cfg.ShardIndex, cfg.ShardCount = shard, k
	res, err := RunScale(context.Background(), cfg)
	if err != nil {
		t.Fatalf("shard %d/%d: %v", shard, k, err)
	}
	path := filepath.Join(t.TempDir(), "shard.journal")
	writeShardJournal(t, path, cfg, res)
	return path
}

// frameStarts returns the journal at path and the byte offset at which
// each of its records' frames starts, followed by the end of the last.
func frameStarts(t *testing.T, path string) ([]byte, []int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var starts []int
	end, _, err := journal.Scan(data, shardTag, func(rec []byte) error {
		starts = append(starts, cap(data)-cap(rec)-8) // 8: the frame's len|crc
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return data, append(starts, int(end))
}

// runShardedScale runs a k-way sharded scale run entirely through the
// journal round-trip: each shard infers, journals, and the journals are
// parsed back and merged.
func runShardedScale(t *testing.T, cfg ScaleConfig, k int) *MergedScaleResult {
	t.Helper()
	var headers []*ShardHeader
	var nodeSets []map[int][]int
	for shard := 0; shard < k; shard++ {
		scfg := cfg
		scfg.ShardIndex, scfg.ShardCount = shard, k
		res, err := RunScale(context.Background(), scfg)
		if err != nil {
			t.Fatalf("shard %d/%d: %v", shard, k, err)
		}
		path := filepath.Join(t.TempDir(), "shard.journal")
		writeShardJournal(t, path, scfg, res)
		h, nodes, warn, err := LoadShardJournal(path, true)
		if err != nil {
			t.Fatalf("load shard %d/%d: %v", shard, k, err)
		}
		if warn != nil {
			t.Fatalf("load shard %d/%d: unexpected warning %v", shard, k, warn)
		}
		headers = append(headers, h)
		nodeSets = append(nodeSets, nodes)
	}
	merged, err := MergeScaleShards(context.Background(), cfg, headers, nodeSets)
	if err != nil {
		t.Fatalf("merge k=%d: %v", k, err)
	}
	return merged
}

// TestShardMergeDeterminism checks that k ∈ {1, 2, 4} sharded runs merge to
// a byte-identical topology, equal to the unsharded inference.
func TestShardMergeDeterminism(t *testing.T) {
	cfg := ScaleConfig{N: 60, Beta: 48, Seeds: 3, Seed: 9, Workers: 2}
	full, err := RunScale(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantText := full.Inference.Graph.String()
	for _, k := range []int{1, 2, 4} {
		merged := runShardedScale(t, cfg, k)
		if got := merged.Graph.String(); got != wantText {
			t.Fatalf("k=%d: merged topology differs from unsharded", k)
		}
		if merged.Threshold != full.Inference.Threshold {
			t.Fatalf("k=%d: threshold %v != %v", k, merged.Threshold, full.Inference.Threshold)
		}
		if merged.Score != full.Score {
			t.Fatalf("k=%d: score %+v != %+v", k, merged.Score, full.Score)
		}
	}
}

// TestBuildScaleWorkloadDeterministic pins the regeneration property the
// merge relies on.
func TestBuildScaleWorkloadDeterministic(t *testing.T) {
	cfg := ScaleConfig{N: 50, Beta: 32, Seeds: 3, Seed: 5}
	g1, s1, err := BuildScaleWorkload(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, s2, err := BuildScaleWorkload(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !g1.Equal(g2) {
		t.Fatal("truth networks differ across regenerations")
	}
	for p := 0; p < cfg.Beta; p++ {
		for v := 0; v < cfg.N; v++ {
			if s1.Get(p, v) != s2.Get(p, v) {
				t.Fatalf("statuses differ at (%d,%d)", p, v)
			}
		}
	}
}

// TestShardJournalValidation covers the merge's refusal paths and the
// load-time checks on node records.
func TestShardJournalValidation(t *testing.T) {
	cfg := ScaleConfig{N: 20, Beta: 16, Seeds: 2, Seed: 3}
	load := func(shard int) (*ShardHeader, map[int][]int) {
		h, nodes, _, err := LoadShardJournal(shardJournalFile(t, cfg, shard, 2), true)
		if err != nil {
			t.Fatal(err)
		}
		return h, nodes
	}
	h0, n0 := load(0)
	h1, n1 := load(1)

	if _, _, err := MergeShardJournals([]*ShardHeader{h0}, []map[int][]int{n0}); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("missing shard not detected: %v", err)
	}
	if _, _, err := MergeShardJournals([]*ShardHeader{h0, h0}, []map[int][]int{n0, n0}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate shard not detected: %v", err)
	}
	bad := *h1
	bad.Seed++
	if _, _, err := MergeShardJournals([]*ShardHeader{h0, &bad}, []map[int][]int{n0, n1}); err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("config mismatch not detected: %v", err)
	}
	badTau := *h1
	badTau.Threshold *= 2
	if _, _, err := MergeShardJournals([]*ShardHeader{h0, &badTau}, []map[int][]int{n0, n1}); err == nil || !strings.Contains(err.Error(), "disagree") {
		t.Fatalf("threshold mismatch not detected: %v", err)
	}
	// Truncated journal: drop one node from shard 1.
	short := make(map[int][]int, len(n1))
	for k, v := range n1 {
		short[k] = v
	}
	for k := range short {
		delete(short, k)
		break
	}
	if _, _, err := MergeShardJournals([]*ShardHeader{h0, h1}, []map[int][]int{n0, short}); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated journal not detected: %v", err)
	}
	// Happy path.
	if _, _, err := MergeShardJournals([]*ShardHeader{h0, h1}, []map[int][]int{n0, n1}); err != nil {
		t.Fatalf("valid merge failed: %v", err)
	}

	// Node records that pass their checksum but break the shard's contract
	// are corruption in either mode: a foreign or out-of-range node never
	// reaches a merge, and nil parents load as empty.
	for _, c := range []struct {
		node int
		want string
	}{{1, "does not belong"}, {20, "out of range"}, {-2, "out of range"}} {
		path := filepath.Join(t.TempDir(), "bad.journal")
		j, err := CreateShardJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		j.WriteHeader(ShardHeader{ShardIndex: 0, ShardCount: 2, N: 20, Beta: 16, Seed: 3})
		j.AppendNode(0, nil)
		j.AppendNode(c.node, []int{3})
		j.Close()
		for _, strict := range []bool{false, true} {
			_, _, _, err := LoadShardJournal(path, strict)
			if !errors.Is(err, ErrJournalCorrupt) || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("node %d strict=%v: err = %v, want %q", c.node, strict, err, c.want)
			}
		}
	}
	path := filepath.Join(t.TempDir(), "nil.journal")
	j, err := CreateShardJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.WriteHeader(ShardHeader{ShardIndex: 0, ShardCount: 2, N: 20, Beta: 16, Seed: 3})
	j.AppendNode(2, nil)
	j.Close()
	if _, nodes, _, err := LoadShardJournal(path, true); err != nil || nodes[2] == nil || len(nodes[2]) != 0 {
		t.Fatalf("nil parents: nodes %v, err %v", nodes, err)
	}
}
