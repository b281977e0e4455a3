package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tends/internal/experiments"
	"tends/internal/journal"
	"tends/internal/obs"
)

func TestParseAlgos(t *testing.T) {
	algos, err := parseAlgos("TENDS, netinf ,PATH")
	if err != nil {
		t.Fatal(err)
	}
	if len(algos) != 3 {
		t.Fatalf("algos = %v", algos)
	}
	if _, err := parseAlgos("bogus"); err == nil {
		t.Fatal("unknown algorithm should fail")
	}
	if _, err := parseAlgos(" , "); err == nil {
		t.Fatal("empty list should fail")
	}
}

func TestRunValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := run(ctx, runOpts{repeats: 1, seed: 1, quiet: true}); err == nil {
		t.Fatal("no figure selected should fail")
	}
	if _, err := run(ctx, runOpts{figNum: 99, repeats: 1, seed: 1, quiet: true}); err == nil {
		t.Fatal("unknown figure should fail")
	}
	if _, err := run(ctx, runOpts{figNum: 1, repeats: 1, seed: 1, algos: "bogus", quiet: true}); err == nil {
		t.Fatal("bad -algos should fail before any work")
	}
	if _, err := run(ctx, runOpts{figNum: 1, repeats: 1, seed: 1, quiet: true,
		checkpoint: "a.journal", resume: "b.journal"}); err == nil {
		t.Fatal("conflicting -checkpoint/-resume paths should fail")
	}
	if _, err := run(ctx, runOpts{figNum: 1, repeats: 1, seed: 1, quiet: true,
		resume: t.TempDir() + "/missing.journal"}); err == nil {
		t.Fatal("missing -resume journal should fail")
	}
	for name, o := range map[string]runOpts{
		"negative repeats":      {figNum: 1, repeats: -1, seed: 1, quiet: true},
		"negative workers":      {figNum: 1, repeats: 1, workers: -2, seed: 1, quiet: true},
		"negative retries":      {figNum: 1, repeats: 1, retries: -1, seed: 1, quiet: true},
		"negative combo budget": {figNum: 1, repeats: 1, comboBudget: -1, seed: 1, quiet: true},
		"negative breaker":      {figNum: 1, repeats: 1, breaker: -3, seed: 1, quiet: true},
		"negative deadline":     {figNum: 1, repeats: 1, nodeDeadline: -time.Second, seed: 1, quiet: true},
		"negative backoff":      {figNum: 1, repeats: 1, retryBackoff: -time.Millisecond, seed: 1, quiet: true},
	} {
		if _, err := run(ctx, o); err == nil || !strings.Contains(err.Error(), "usage:") {
			t.Fatalf("%s should fail with a usage error, got %v", name, err)
		}
	}
	if _, err := run(ctx, runOpts{figNum: 1, repeats: 1, seed: 1, quiet: true,
		chaosSpec: "bogus.site=0.5"}); err == nil || !strings.Contains(err.Error(), "-chaos") {
		t.Fatal("bad -chaos spec should fail before any work")
	}
	if _, err := run(ctx, runOpts{figNum: 1, repeats: 1, seed: 1, quiet: true,
		chaosSpec: "experiments.cell.infer=2"}); err == nil {
		t.Fatal("out-of-range chaos rate should fail before any work")
	}
}

// A journal with a damaged tail (a crash mid-append) still resumes: the
// intact cells are restored, and the dropped byte count lands on the
// recorder so an -obs-json snapshot records the loss.
func TestLoadResumeCountsCorruptLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := experiments.NewJournal(path, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	meas := experiments.Measurement{Figure: "FigX", Point: "p1", Algorithm: experiments.AlgoLIFT}
	if err := j.Append(0, meas); err != nil {
		t.Fatal(err)
	}
	j.Close()
	damage := []byte{0x7f, 0, 0, 0, 1, 2, 3}
	appendBytes(t, path, damage)
	// -resume-strict refuses the damaged journal with the byte position and
	// leaves it alone.
	if _, _, err := openResume(path, 5, 1, true, nil); !errors.Is(err, experiments.ErrJournalCorrupt) || !strings.Contains(err.Error(), "torn tail at byte") {
		t.Fatalf("strict resume of damaged journal: err = %v, want ErrJournalCorrupt with the byte offset", err)
	}
	rec := obs.New()
	j, cells, err := openResume(path, 5, 1, false, rec)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(cells) != 1 {
		t.Fatalf("restored %d cells, want 1", len(cells))
	}
	if got := rec.Snapshot().Counters["benchfig/journal_dropped_bytes"]; got != int64(len(damage)) {
		t.Fatalf("journal_dropped_bytes = %d, want %d", got, len(damage))
	}
	// A nil recorder must not panic — resume without -obs-json.
	appendBytes(t, path, damage)
	j, _, err = openResume(path, 5, 1, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	// A journal from another configuration is refused.
	if _, _, err := openResume(path, 6, 1, false, nil); err == nil || !strings.Contains(err.Error(), "seed 5") {
		t.Fatalf("mismatched seed accepted: %v", err)
	}
}

// TestResumeHealsTornTail: a run killed mid-append leaves a torn record;
// resuming must append the next cell on a record boundary, so both the
// surviving and the new cell load afterwards and the journal is clean
// enough for -resume-strict.
func TestResumeHealsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.journal")
	j, err := experiments.NewJournal(path, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	cell := func(point int) experiments.Measurement {
		return experiments.Measurement{Figure: "FigX", Point: fmt.Sprint("p", point), Algorithm: experiments.AlgoLIFT, F: 0.5}
	}
	if err := j.Append(0, cell(0)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	before, _ := os.ReadFile(path)
	j, _, err = openResume(path, 5, 1, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(1, cell(1)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// Cut the second record mid-way, as a kill would.
	full, _ := os.ReadFile(path)
	if err := os.WriteFile(path, full[:len(before)+(len(full)-len(before))/2], 0o644); err != nil {
		t.Fatal(err)
	}

	j, cells, err := openResume(path, 5, 1, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("resume restored %d cells, want 1", len(cells))
	}
	if err := j.Append(2, cell(2)); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j, cells, err = openResume(path, 5, 1, true, nil)
	if err != nil {
		t.Fatalf("strict reload after resume: %v", err)
	}
	j.Close()
	if len(cells) != 2 {
		t.Fatalf("reload found %d cells, want 2 (the survivor and the one appended after resume)", len(cells))
	}
}

// TestMergeRefusesFlippedShardJournal flips one byte inside a shard
// journal's node record, chosen so the JSON would still parse (the last
// digit of a parent id becomes its neighbour): the merge must refuse, and
// the degraded merge must drop that shard and list its nodes as missing.
func TestMergeRefusesFlippedShardJournal(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	o := runOpts{seed: 4, workers: 2, quiet: true}
	s := scaleOpts{run: true, n: 60, beta: 32, deg: 10, exp: 2, mixing: 0.1, seeds: 4, mu: 0.08, sparse: true}
	paths := make([]string, 2)
	for shard := range paths {
		paths[shard] = filepath.Join(dir, fmt.Sprintf("shard-%d.journal", shard))
		so, oo := s, o
		so.shardSpec, oo.checkpoint = fmt.Sprintf("%d/2", shard), paths[shard]
		if code, err := runScale(ctx, oo, so); err != nil || code != exitOK {
			t.Fatalf("shard %d: exit %d, %v", shard, code, err)
		}
	}
	merge := s
	merge.mergeSpec = filepath.Join(dir, "shard-*.journal")
	if code, err := runScale(ctx, o, merge); err != nil || code != exitOK {
		t.Fatalf("clean merge: exit %d, %v", code, err)
	}

	// Flip the last digit of the first parent id in shard 1's first node
	// record that has parents, unless that record is the last one.
	data, err := os.ReadFile(paths[1])
	if err != nil {
		t.Fatal(err)
	}
	var recs [][]byte
	if _, _, err := journal.Scan(data, "shard", func(rec []byte) error {
		recs = append(recs, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	const key = `"parents":[`
	flipped := false
	for _, rec := range recs[1 : len(recs)-1] {
		if i := bytes.Index(rec, []byte(key)) + len(key); i >= len(key) && rec[i] != ']' {
			for rec[i+1] >= '0' && rec[i+1] <= '9' {
				i++
			}
			rec[i] ^= 0x01 // rec aliases data
			flipped = true
			break
		}
	}
	if !flipped {
		t.Fatal("no non-final node record with parents to damage")
	}
	if err := os.WriteFile(paths[1], data, 0o644); err != nil {
		t.Fatal(err)
	}

	code, err := runScale(ctx, o, merge)
	if err == nil || code != exitErr || !errors.Is(err, experiments.ErrJournalCorrupt) || !strings.Contains(err.Error(), "mid-file damage") {
		t.Fatalf("merge of flipped journal: exit %d, err %v; want a refusal naming mid-file damage", code, err)
	}
	headers, nodes, _ := loadShardJournals(paths, false, true)
	if len(headers) != 1 || headers[0].ShardIndex != 0 {
		t.Fatalf("degraded load kept %d journals, want only shard 0", len(headers))
	}
	_, _, rep, err := experiments.MergeShardJournalsDegraded(headers, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.MissingShards) != 1 || rep.MissingShards[0] != 1 || len(rep.MissingNodes) != s.n/2 {
		t.Fatalf("degraded report: missing shards %v, %d missing nodes; want shard 1's %d nodes",
			rep.MissingShards, len(rep.MissingNodes), s.n/2)
	}
	for _, v := range rep.MissingNodes {
		if v%2 != 1 {
			t.Fatalf("missing node %d is not shard 1's", v)
		}
	}
	degraded := merge
	degraded.mergeDegraded = true
	if code, err := runScale(ctx, o, degraded); err != nil || code != exitFailedCells {
		t.Fatalf("degraded merge: exit %d, %v; want %d", code, err, exitFailedCells)
	}
}

// appendBytes appends raw bytes to the file at path.
func appendBytes(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
}

func TestRunAblationValidation(t *testing.T) {
	// Unknown names must fail; note the workload is simulated before the
	// dispatch, so this still costs one NetSci simulation (~1s).
	if err := runAblation("bogus", 1); err == nil {
		t.Fatal("unknown ablation should fail")
	}
	if err := runExtension("bogus", 1); err == nil {
		t.Fatal("unknown extension should fail")
	}
}
