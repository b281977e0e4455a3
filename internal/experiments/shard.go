package experiments

import (
	"errors"
	"fmt"

	"tends/internal/journal"
)

// ShardHeader is the first record of a shard journal — one shard's slice of
// a sharded scale run (cmd/benchfig -shard i/k). It carries the full run
// identity so a merge can refuse journals produced under different
// configurations, plus the shard's selected pruning threshold: every shard
// computes the global τ from the complete pairwise stage, so the merge
// cross-checks that all shards agree bit-for-bit before trusting that their
// parent sets compose into the unsharded topology.
type ShardHeader struct {
	ShardIndex int     `json:"shard_index"`
	ShardCount int     `json:"shard_count"`
	N          int     `json:"n"`
	Beta       int     `json:"beta"`
	Seed       int64   `json:"seed"`
	Sparse     bool    `json:"sparse"`
	Threshold  float64 `json:"threshold"`
}

// SameRun reports whether two headers describe the same sharded run: the
// identity fields that must match for their node records to compose.
// Threshold is compared separately (bit-identical) by the merges.
func (h ShardHeader) SameRun(o ShardHeader) bool {
	return h.N == o.N && h.Beta == o.Beta && h.Seed == o.Seed &&
		h.Sparse == o.Sparse && h.ShardCount == o.ShardCount
}

// shardNode is one node's inferred parent set. Only nodes owned by the
// shard (node % shard_count == shard_index) appear.
type shardNode struct {
	Node    int   `json:"node"`
	Parents []int `json:"parents"`
}

// shardTag is the journal format tag of shard journals.
const shardTag = "shard"

// ShardJournal streams one shard's results to a journal (internal/journal,
// tag "shard"): a ShardHeader record, then one shardNode record per node,
// each JSON. Appends are safe for concurrent use.
type ShardJournal struct {
	w *journal.Writer
}

// CreateShardJournal starts an empty shard journal at path. The header
// record comes later, from WriteHeader: the incremental journaling path
// learns the threshold only once core's OnSearchStart hook fires.
func CreateShardJournal(path string) (*ShardJournal, error) {
	w, err := journal.Create(path, shardTag)
	if err != nil {
		return nil, err
	}
	return &ShardJournal{w: w}, nil
}

// WriteHeader appends the journal's header record.
func (s *ShardJournal) WriteHeader(h ShardHeader) error {
	if err := appendJSON(s.w, h); err != nil {
		return fmt.Errorf("write shard header: %w", err)
	}
	return nil
}

// AppendNode records one node's parent set.
func (s *ShardJournal) AppendNode(node int, parents []int) error {
	if parents == nil {
		parents = []int{}
	}
	return appendJSON(s.w, shardNode{Node: node, Parents: parents})
}

// Close closes the journal file without an fsync, as a worker's exit
// should not wait on the disk: the merge reads the file after the worker
// exits, and records an OS crash loses read as damage that a resume
// recomputes.
func (s *ShardJournal) Close() error { return s.w.Close() }

// shardLoad accumulates a shard journal's records as they replay.
type shardLoad struct {
	header *ShardHeader
	nodes  map[int][]int
}

// record decodes one replayed record: the first is the header, every later
// one a node the shard owns. A record that passed its checksum but fails
// these checks was written wrong, so it is corruption, never skipped.
func (l *shardLoad) record(rec []byte) error {
	if l.header == nil {
		var h ShardHeader
		if err := decodeRecord(rec, &h); err != nil {
			return fmt.Errorf("shard journal header: %w", err)
		}
		if h.ShardCount < 1 || h.ShardIndex < 0 || h.ShardIndex >= h.ShardCount || h.N < 1 {
			return fmt.Errorf("%w: shard journal: invalid shard identity %d/%d (n=%d)", ErrJournalCorrupt, h.ShardIndex, h.ShardCount, h.N)
		}
		l.header = &h
		return nil
	}
	var rn shardNode
	if err := decodeRecord(rec, &rn); err != nil {
		return fmt.Errorf("shard journal node: %w", err)
	}
	h := l.header
	if rn.Node < 0 || rn.Node >= h.N {
		return fmt.Errorf("%w: shard journal: node %d out of range [0,%d)", ErrJournalCorrupt, rn.Node, h.N)
	}
	if rn.Node%h.ShardCount != h.ShardIndex {
		return fmt.Errorf("%w: shard journal: node %d does not belong to shard %d/%d", ErrJournalCorrupt, rn.Node, h.ShardIndex, h.ShardCount)
	}
	if rn.Parents == nil {
		rn.Parents = []int{}
	}
	l.nodes[rn.Node] = rn.Parents
	return nil
}

// check applies the shard policy after a lenient replay: a torn tail (the
// normal state after a killed writer) keeps the intact records, but
// mid-file damage lost records in a way nothing can make whole, so the
// journal is refused. A journal must also have its header.
func (l *shardLoad) check(warn *journal.Warning) error {
	if warn != nil && !warn.Torn {
		return fmt.Errorf("%w: %s", ErrJournalCorrupt, warn)
	}
	if l.header == nil {
		return fmt.Errorf("%w: shard journal has no header record", ErrJournalCorrupt)
	}
	return nil
}

// LoadShardJournal reads the shard journal at path without modifying it.
// Shard journals feed a topology merge, so only a torn tail is tolerated:
// it comes back as the warning with the intact records (strict mode
// refuses it too). Mid-file damage, a record that does not decode, and a
// missing header are errors wrapping ErrJournalCorrupt in either mode.
func LoadShardJournal(path string, strict bool) (*ShardHeader, map[int][]int, *journal.Warning, error) {
	l := shardLoad{nodes: make(map[int][]int)}
	warn, err := journal.Read(path, shardTag, strict, l.record)
	if err == nil {
		err = l.check(warn)
	}
	return l.header, l.nodes, warn, err
}

// ResumedShard is a partial shard journal reopened for node-level
// continuation: the header and completed nodes already on disk, plus a
// journal positioned to append the rest.
type ResumedShard struct {
	Header *ShardHeader
	Nodes  map[int][]int
	// TruncatedBytes is how much torn tail was cut before reopening for
	// append (0 when the journal ended cleanly).
	TruncatedBytes int64

	Journal *ShardJournal
}

// Close closes the underlying journal file.
func (r *ResumedShard) Close() error { return r.Journal.Close() }

// OpenShardResume reopens a partial shard journal for continuation. A torn
// tail — the normal state after a worker was killed mid-append — is
// truncated away so the continuation starts on a record boundary; any
// other damage (mid-file corruption, a missing header) is an error
// wrapping ErrJournalCorrupt, and the caller should restart the shard from
// scratch.
func OpenShardResume(path string) (*ResumedShard, error) {
	l := shardLoad{nodes: make(map[int][]int)}
	w, warn, err := journal.Open(path, shardTag, false, l.record)
	if err == nil {
		if err = l.check(warn); err != nil {
			w.Close()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("resume %s: %w", path, err)
	}
	rs := &ResumedShard{Header: l.header, Nodes: l.nodes, Journal: &ShardJournal{w: w}}
	if warn != nil {
		rs.TruncatedBytes = warn.Dropped
	}
	return rs, nil
}

// MergeShardJournals validates a set of parsed shard journals and composes
// them into the full parent-set array. It requires: identical run identity
// across headers (N, Beta, Seed, Sparse, ShardCount), bit-identical
// thresholds (each shard computes the global τ independently — disagreement
// means the shards did not run the same pairwise stage), exactly the shard
// indices {0..k-1} with no duplicates, and a parent set for every node.
func MergeShardJournals(headers []*ShardHeader, nodes []map[int][]int) ([][]int, *ShardHeader, error) {
	seen := make(map[int]bool, len(headers))
	for _, h := range headers {
		if seen[h.ShardIndex] {
			return nil, nil, fmt.Errorf("merge: duplicate shard index %d", h.ShardIndex)
		}
		seen[h.ShardIndex] = true
	}
	parents, ref, rep, err := MergeShardJournalsDegraded(headers, nodes)
	switch {
	case err != nil:
		return nil, nil, err
	case len(rep.MissingShards) > 0:
		return nil, nil, fmt.Errorf("merge: shard set incomplete: have %d of %d shards, missing indices %v (a degraded merge accepts a partial set)",
			len(rep.PresentShards), rep.ShardCount, rep.MissingShards)
	case len(rep.MissingNodes) > 0:
		v := rep.MissingNodes[0]
		return nil, nil, fmt.Errorf("merge: %d nodes missing, first node %d of shard %d — journal truncated?",
			len(rep.MissingNodes), v, v%rep.ShardCount)
	}
	return parents, ref, nil
}

// MergeReport is the structured accounting of a degraded merge: which
// shards contributed, which are absent, and exactly which nodes the partial
// topology is missing — the merge's analogue of core's Degraded report.
// MergedNodes + len(MissingNodes) always equals N.
type MergeReport struct {
	N             int   `json:"n"`
	ShardCount    int   `json:"shard_count"`
	PresentShards []int `json:"present_shards"`
	MissingShards []int `json:"missing_shards"`
	MergedNodes   int   `json:"merged_nodes"`
	MissingNodes  []int `json:"missing_nodes"`
	Complete      bool  `json:"complete"`
}

// MergeShardJournalsDegraded composes whatever shard journals survived into
// the best partial topology available, with an explicit report of what is
// missing. Unlike the strict MergeShardJournals it tolerates absent shards,
// truncated journals, and duplicate shard indices (a shard rerun into a
// second journal leaves two for one shard; node results are deterministic,
// so duplicates must agree — disagreement is still a hard error, as are mismatched run
// identities and thresholds). Missing nodes keep empty parent sets in the
// returned array and are listed, ascending, in the report.
func MergeShardJournalsDegraded(headers []*ShardHeader, nodes []map[int][]int) ([][]int, *ShardHeader, *MergeReport, error) {
	if len(headers) == 0 {
		return nil, nil, nil, errors.New("merge: no shard journals")
	}
	if len(headers) != len(nodes) {
		return nil, nil, nil, fmt.Errorf("merge: %d headers but %d node sets", len(headers), len(nodes))
	}
	ref := headers[0]
	present := make(map[int]bool, len(headers))
	merged := make(map[int][]int)
	for si, h := range headers {
		if !h.SameRun(*ref) {
			return nil, nil, nil, fmt.Errorf("merge: shard %d/%d ran a different configuration than shard %d/%d",
				h.ShardIndex, h.ShardCount, ref.ShardIndex, ref.ShardCount)
		}
		if h.Threshold != ref.Threshold {
			return nil, nil, nil, fmt.Errorf("merge: shard %d selected threshold %v, shard %d selected %v — pairwise stages disagree",
				h.ShardIndex, h.Threshold, ref.ShardIndex, ref.Threshold)
		}
		present[h.ShardIndex] = true
		for node, ps := range nodes[si] {
			if prev, ok := merged[node]; ok {
				if !equalInts(prev, ps) {
					return nil, nil, nil, fmt.Errorf("merge: duplicate journals disagree on node %d's parents (%v vs %v)", node, prev, ps)
				}
				continue
			}
			merged[node] = ps
		}
	}
	rep := &MergeReport{N: ref.N, ShardCount: ref.ShardCount, MergedNodes: len(merged)}
	for i := 0; i < ref.ShardCount; i++ {
		if present[i] {
			rep.PresentShards = append(rep.PresentShards, i)
		} else {
			rep.MissingShards = append(rep.MissingShards, i)
		}
	}
	parents := make([][]int, ref.N)
	for i := 0; i < ref.N; i++ {
		if ps, ok := merged[i]; ok {
			parents[i] = ps
		} else {
			rep.MissingNodes = append(rep.MissingNodes, i)
		}
	}
	rep.Complete = len(rep.MissingNodes) == 0 && len(rep.MissingShards) == 0
	return parents, ref, rep, nil
}

// equalInts reports whether two int slices hold the same sequence.
func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
