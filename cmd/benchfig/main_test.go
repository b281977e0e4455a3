package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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
		"negative deadline":     {figNum: 1, repeats: 1, nodeDeadline: -time.Second, seed: 1, quiet: true},
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
	o, s := smallScaleRun()
	paths := runShards(t, dir, o, s)
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

// smallScaleRun is the n=60 scale configuration the shard tests split in
// two.
func smallScaleRun() (runOpts, scaleOpts) {
	return runOpts{seed: 4, workers: 2, quiet: true},
		scaleOpts{run: true, n: 60, beta: 32, deg: 10, exp: 2, mixing: 0.1, seeds: 4, mu: 0.08}
}

// runShards runs both shards of a 2-way split through the -shard mode,
// journaling shard i to dir/shard-i.journal, and returns the paths.
func runShards(t *testing.T, dir string, o runOpts, s scaleOpts) []string {
	t.Helper()
	paths := make([]string, 2)
	for shard := range paths {
		paths[shard] = filepath.Join(dir, fmt.Sprintf("shard-%d.journal", shard))
		so, oo := s, o
		so.shardSpec, oo.checkpoint = fmt.Sprintf("%d/2", shard), paths[shard]
		if code, err := runScale(context.Background(), oo, so); err != nil || code != exitOK {
			t.Fatalf("shard %d: exit %d, %v", shard, code, err)
		}
	}
	return paths
}

// mergeShards is the strict merge of the -merge mode, returning the merged
// topology instead of printing it.
func mergeShards(t *testing.T, o runOpts, s scaleOpts, paths []string) *experiments.MergedScaleResult {
	t.Helper()
	headers, nodes, err := loadShardJournals(paths, true, false)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := experiments.MergeScaleShards(context.Background(), s.config(o), headers, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return merged
}

// TestShardResumeAndGappedMerge recovers a shard by hand: a journal cut
// mid-record is continued by rerunning -shard 1/2 -shard-resume, and the
// merge equals the clean one. With shard 1's journal gone, the strict merge
// exits 1 naming the missing index and -merge-degraded exits 3.
func TestShardResumeAndGappedMerge(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	o, s := smallScaleRun()
	paths := runShards(t, dir, o, s)
	clean := mergeShards(t, o, s, paths)

	// Cut shard 1's journal in the middle of its middle record, as a kill
	// mid-append would.
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
	mid := recs[len(recs)/2]
	cut := cap(data) - cap(mid) + len(mid)/2 // mid aliases data
	if err := os.WriteFile(paths[1], data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	resume, so := o, s
	resume.checkpoint, resume.obsJSON = paths[1], filepath.Join(dir, "resume.json")
	so.shardSpec, so.shardResume = "1/2", true
	if code, err := runScale(ctx, resume, so); err != nil || code != exitOK {
		t.Fatalf("resumed shard: exit %d, %v", code, err)
	}
	f, err := os.Open(resume.obsJSON)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := obs.ReadSnapshot(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if c := snap.Counters; c["scale/resume/continued"] != 1 || c["scale/resume/torn_tail_bytes"] == 0 || c["scale/resume/nodes_skipped"] == 0 {
		t.Fatalf("resume counters %v: the rerun did not continue the cut journal", c)
	}
	got := mergeShards(t, o, s, paths)
	if got.Threshold != clean.Threshold || got.Graph.NumEdges() != clean.Graph.NumEdges() ||
		got.Score != clean.Score || !reflect.DeepEqual(got.Parents, clean.Parents) {
		t.Fatalf("resumed merge τ=%v edges=%d %+v, clean merge τ=%v edges=%d %+v",
			got.Threshold, got.Graph.NumEdges(), got.Score, clean.Threshold, clean.Graph.NumEdges(), clean.Score)
	}

	if err := os.Remove(paths[1]); err != nil {
		t.Fatal(err)
	}
	merge := s
	merge.mergeSpec = filepath.Join(dir, "shard-*.journal")
	code, err := runScale(ctx, o, merge)
	if code != exitErr || err == nil || !strings.Contains(err.Error(), "missing indices [1]") {
		t.Fatalf("strict merge of a gapped set: exit %d, err %v; want exit %d naming missing indices [1]", code, err, exitErr)
	}
	merge.mergeDegraded = true
	if code, err := runScale(ctx, o, merge); err != nil || code != exitFailedCells {
		t.Fatalf("degraded merge of a gapped set: exit %d, %v; want %d", code, err, exitFailedCells)
	}
}

// TestOldShardHeaderRefused: shard journals written before the pairwise
// stage chose its counting step itself carry a "sparse" field in their
// header, which the header no longer has. Such a journal is corrupt: the
// strict -merge refuses it, and -shard-resume restarts the shard fresh, so
// the merge of the restarted journal equals the clean one.
func TestOldShardHeaderRefused(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	o, s := smallScaleRun()
	paths := runShards(t, dir, o, s)
	clean := mergeShards(t, o, s, paths)

	// Rewrite shard 1's journal with the old header: its records, with
	// "sparse":true added to the first.
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
	recs[0] = append([]byte(`{"sparse":true,`), recs[0][1:]...)
	w, err := journal.Create(paths[1], "shard")
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	merge := s
	merge.mergeSpec = strings.Join(paths, ",")
	if code, err := runScale(ctx, o, merge); code != exitErr || !errors.Is(err, experiments.ErrJournalCorrupt) ||
		!strings.Contains(err.Error(), `unknown field "sparse"`) {
		t.Fatalf("merge of an old-format journal: exit %d, err %v; want exit %d refusing the \"sparse\" field", code, err, exitErr)
	}

	resume, so := o, s
	resume.checkpoint, resume.obsJSON = paths[1], filepath.Join(dir, "resume.json")
	so.shardSpec, so.shardResume = "1/2", true
	if code, err := runScale(ctx, resume, so); err != nil || code != exitOK {
		t.Fatalf("resumed shard: exit %d, %v", code, err)
	}
	f, err := os.Open(resume.obsJSON)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := obs.ReadSnapshot(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if c := snap.Counters; c["scale/resume/corrupt_restart"] != 1 || c["scale/resume/continued"] != 0 {
		t.Fatalf("resume counters %v: the rerun did not restart the old-format journal", c)
	}
	got := mergeShards(t, o, s, paths)
	if got.Threshold != clean.Threshold || got.Score != clean.Score || !reflect.DeepEqual(got.Parents, clean.Parents) {
		t.Fatalf("restarted merge τ=%v %+v, clean merge τ=%v %+v", got.Threshold, got.Score, clean.Threshold, clean.Score)
	}
}

// TestRunScaleValidation: a flag the chosen scale mode would ignore is a
// usage error, not a silent full run.
func TestRunScaleValidation(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "x.journal")
	o, s := smallScaleRun()
	cases := map[string]func(*runOpts, *scaleOpts){
		"shard-resume without shard":   func(o *runOpts, s *scaleOpts) { s.shardResume = true },
		"merge-degraded without merge": func(o *runOpts, s *scaleOpts) { s.mergeDegraded = true },
		"checkpoint in a full run":     func(o *runOpts, s *scaleOpts) { o.checkpoint = journalPath },
		"resume in a full run":         func(o *runOpts, s *scaleOpts) { o.resume = journalPath },
		"resume-strict in a full run":  func(o *runOpts, s *scaleOpts) { o.resumeStrict = true },
		"checkpoint with merge": func(o *runOpts, s *scaleOpts) {
			o.checkpoint, s.mergeSpec = journalPath, filepath.Join(dir, "shard-*.journal")
		},
		"resume with shard": func(o *runOpts, s *scaleOpts) {
			o.checkpoint, o.resume, s.shardSpec = journalPath, journalPath, "0/2"
		},
		"shard with merge": func(o *runOpts, s *scaleOpts) {
			o.checkpoint, s.shardSpec, s.mergeSpec = journalPath, "0/2", filepath.Join(dir, "shard-*.journal")
		},
		"csv in a shard": func(o *runOpts, s *scaleOpts) {
			o.checkpoint, s.shardSpec = journalPath, "0/2"
			s.explicit = map[string]bool{"csv": true}
		},
		"repeats in a merge": func(o *runOpts, s *scaleOpts) {
			s.mergeSpec = filepath.Join(dir, "shard-*.journal")
			s.explicit = map[string]bool{"repeats": true}
		},
	}
	// Every figure flag, set explicitly, is refused by a full scale run,
	// even at its default value.
	for _, name := range figureOnlyFlags {
		cases["-"+name+" in a full run"] = func(o *runOpts, s *scaleOpts) { s.explicit = map[string]bool{name: true} }
	}
	for name, tc := range cases {
		oo, so := o, s
		tc(&oo, &so)
		code, err := runScale(context.Background(), oo, so)
		if code != exitErr || err == nil || !strings.Contains(err.Error(), "usage:") {
			t.Errorf("%s: exit %d, err %v; want a usage error", name, code, err)
		}
		if _, err := os.Stat(journalPath); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s wrote %s", name, journalPath)
			os.Remove(journalPath)
		}
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

// TestRunAblationValidation: -study resolves only the named studies,
// lists them when the name is unknown, and runs alone.
func TestRunAblationValidation(t *testing.T) {
	ctx := context.Background()
	_, err := run(ctx, runOpts{study: "bogus", repeats: 1, seed: 1, quiet: true})
	if err == nil {
		t.Fatal("unknown study should fail")
	}
	for _, name := range experiments.StudyNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("unknown-study error %q does not list %q", err, name)
		}
	}
	if _, err := run(ctx, runOpts{study: "greedy", figNum: 1, repeats: 1, seed: 1, quiet: true}); err == nil || !strings.Contains(err.Error(), "usage:") {
		t.Fatalf("-study with -fig should fail with a usage error, got %v", err)
	}
}

// TestRunStudy: a study goes through the figure runner, so -repeats and
// -csv apply: one row per variant, with a spread across the repeats.
func TestRunStudy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "greedy.csv")
	if code, err := run(context.Background(), runOpts{study: "greedy", repeats: 2, seed: 1, quiet: true, csvPath: path}); err != nil || code != exitOK {
		t.Fatalf("exit %d, %v", code, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(string(data)), "\n")[1:]
	if want := len(experiments.Studies()["greedy"].Algorithms); len(rows) != want {
		t.Fatalf("%d CSV rows, want one per variant (%d)", len(rows), want)
	}
	spread := false
	for _, row := range rows {
		f := strings.Split(row, ",")
		if f[0] != "greedy" || f[14] != "" {
			t.Fatalf("unexpected row %q", row)
		}
		spread = spread || f[4] != "0.0000"
	}
	if !spread {
		t.Fatal("fscore_std is 0 on every row: -repeats 2 did not apply")
	}
}
