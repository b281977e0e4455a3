// Package serve is the crash-safe streaming inference service: it ingests
// final-status observation rows in batches, acks them only after a
// write-ahead-log fsync, folds them into incremental IMI counts, and
// re-runs the node-local parent search on a debounced background loop.
// Every acked row survives kill -9 — restart replays the WAL onto the last
// snapshot and recomputes a topology byte-identical to a batch run over
// the same rows.
package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tends/internal/chaos"
	"tends/internal/core"
	"tends/internal/diffusion"
	"tends/internal/obs"
)

// Config configures a Server. The zero value of every limit picks a
// conservative default; N and Dir are required.
type Config struct {
	// N is the node count. Every ingested row must use ids in [0, N).
	N int
	// Dir is the data directory holding wal.log and snapshot.bin.
	Dir string

	// Infer is the inference configuration applied at every recompute.
	// TraditionalMI selects the pairwise statistic the incremental counts
	// maintain; NodeDeadline and ComboBudget arm graceful degradation,
	// surfaced per node in query responses.
	Infer core.Options

	// QueueRows bounds the rows queued for commit; an ingest that would
	// exceed it is rejected with 429 + Retry-After. Default 65536.
	QueueRows int
	// MaxInflight bounds concurrently admitted ingest requests; excess is
	// rejected with 503. Default 256.
	MaxInflight int
	// MaxHeapBytes rejects ingests with 503 while the live heap exceeds
	// it (sampled, not exact). 0 disables the gate.
	MaxHeapBytes int64
	// RequestTimeout bounds each request's handling, commit wait included.
	// Default 10s.
	RequestTimeout time.Duration

	// Debounce is how long after the last ingest the recompute loop waits
	// before inferring, so a burst of batches costs one recompute, not
	// one per batch. Default 100ms.
	Debounce time.Duration
	// MaxLag caps how stale the topology may get under a continuous
	// ingest stream that never lets the debounce window close. Default 2s.
	MaxLag time.Duration
	// SnapshotEvery persists a snapshot (and resets the WAL) every this
	// many newly acked rows. 0 snapshots only on drain.
	SnapshotEvery int
	// DrainTimeout bounds the graceful drain Serve performs on shutdown
	// (queued batches committing, the final recompute, the snapshot). A
	// breach surfaces as an error wrapping ErrDrainDeadline so the operator
	// surface can report what was left behind. Default 30s.
	DrainTimeout time.Duration

	// StrictWAL refuses to start on a torn or corrupt WAL tail instead of
	// truncating it — the -resume-strict of the service world.
	StrictWAL bool

	// Recorder receives the service's counters; nil disables telemetry.
	Recorder *obs.Recorder
	// Injector arms fault injection at the serve.* chaos sites.
	Injector *chaos.Injector
	// ChaosSeed derives the injector's decision scope.
	ChaosSeed int64
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.QueueRows == 0 {
		c.QueueRows = 65536
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 256
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.Debounce == 0 {
		c.Debounce = 100 * time.Millisecond
	}
	if c.MaxLag == 0 {
		c.MaxLag = 2 * time.Second
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = DefaultDrainTimeout
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// pendingBatch is one enqueued ingest unit awaiting group commit.
type pendingBatch struct {
	b    batch
	dup  bool  // id was already acked; nothing written
	err  error // commit failure; the batch is NOT acked
	done chan struct{}
}

// Server is the streaming inference service. Create with New, start the
// background loops with Start, serve Handler over HTTP, stop with Drain.
type Server struct {
	cfg Config

	// values carries the obs recorder and chaos injector; loopCtx adds
	// cancellation for the background loops.
	values     context.Context
	loopCtx    context.Context
	loopCancel context.CancelFunc

	walMu sync.Mutex // serializes WAL append/sync/reset; taken before mu
	wal   *WAL

	mu       sync.Mutex
	counts   *core.IncrementalCounts
	buf      *diffusion.StatusBuffer
	seen     map[uint64]bool // acked batch ids
	dirty    map[int]bool    // nodes touched since the last recompute
	topo     *topology
	intConv  []int // scratch for int32→int row conversion under mu
	lastSnap uint64

	gateMu   sync.RWMutex // held (R) while enqueueing; (W) to close batches
	batches  chan *pendingBatch
	draining atomic.Bool
	ready    atomic.Bool

	queueRows    atomic.Int64
	inflight     atomic.Int64
	lastIngest   atomic.Int64 // unix nanos of the last fold
	firstPending atomic.Int64 // unix nanos of the first un-recomputed fold
	heapCheck    atomic.Int64 // unix nanos of the last heap sample
	heapLive     atomic.Int64 // sampled live heap bytes

	wake          chan struct{}
	ingestDone    chan struct{}
	recomputeDone chan struct{}
	startOnce     sync.Once
	drainOnce     sync.Once
	drainErr      error
}

// New restores state from Dir (snapshot plus WAL replay) and returns a
// server ready to Start. A torn WAL tail is truncated away unless
// Config.StrictWAL is set.
func New(cfg Config) (*Server, ReplayStats, error) {
	cfg = cfg.withDefaults()
	var st ReplayStats
	if cfg.N <= 0 {
		return nil, st, fmt.Errorf("serve: node count %d must be positive", cfg.N)
	}
	if cfg.Dir == "" {
		return nil, st, errors.New("serve: data directory required")
	}
	values := obs.With(context.Background(), cfg.Recorder)
	values = chaos.With(values, cfg.Injector)
	values = chaos.WithScope(values, chaos.Tag(cfg.ChaosSeed, "serve"))

	s := &Server{
		cfg:           cfg,
		values:        values,
		counts:        core.NewIncrementalCounts(cfg.N, cfg.Infer.TraditionalMI),
		buf:           diffusion.NewStatusBuffer(cfg.N),
		seen:          make(map[uint64]bool),
		dirty:         make(map[int]bool),
		batches:       make(chan *pendingBatch, 4096),
		wake:          make(chan struct{}, 1),
		ingestDone:    make(chan struct{}),
		recomputeDone: make(chan struct{}),
	}
	s.loopCtx, s.loopCancel = context.WithCancel(values)

	snap, err := readSnapshot(s.snapPath())
	if err != nil {
		return nil, st, err
	}
	if snap != nil {
		if snap.n != cfg.N {
			return nil, st, fmt.Errorf("serve: snapshot holds %d-node state, server configured for %d", snap.n, cfg.N)
		}
		if snap.traditional != cfg.Infer.TraditionalMI {
			return nil, st, fmt.Errorf("serve: snapshot built with traditional=%v, server configured with %v", snap.traditional, cfg.Infer.TraditionalMI)
		}
		for i, row := range snap.rows {
			if err := s.foldRowLocked(row); err != nil {
				return nil, st, fmt.Errorf("serve: snapshot row %d: %w", i, err)
			}
		}
		for _, id := range snap.ids {
			s.seen[id] = true
		}
		s.topo = snap.topo
		s.lastSnap = uint64(len(snap.rows))
	}
	if s.topo == nil {
		s.topo = &topology{parents: make([][]int, cfg.N)}
	}

	snapRows := uint64(s.buf.Beta())
	walPath := s.walPath()
	if _, statErr := os.Stat(walPath); statErr == nil {
		s.wal, st, err = OpenWAL(values, walPath, cfg.N, cfg.StrictWAL, snapRows,
			func(id uint64) bool { return s.seen[id] },
			func(b batch) error {
				for _, row := range b.rows {
					if err := s.foldRowLocked(row); err != nil {
						return err
					}
				}
				s.seen[b.id] = true
				return nil
			})
		if err != nil {
			return nil, st, err
		}
		if st.Damage != nil {
			cfg.Logf("serve: truncated WAL %s", st.Damage)
		}
		if st.Rows > 0 {
			cfg.Logf("serve: replayed %d rows (%d batches, %d duplicate batches) from WAL", st.Rows, st.Batches, st.Duplicate)
		}
	} else {
		s.wal, err = CreateWAL(walPath, cfg.N, snapRows)
		if err != nil {
			return nil, st, err
		}
	}

	if uint64(s.buf.Beta()) == s.topo.rows {
		s.ready.Store(true)
	} else {
		// Replayed rows past the snapshot's topology: the first recompute
		// (triggered by Start) brings us current before readiness.
		s.firstPending.Store(time.Now().UnixNano())
	}
	return s, st, nil
}

func (s *Server) snapPath() string { return filepath.Join(s.cfg.Dir, "snapshot.bin") }
func (s *Server) walPath() string  { return filepath.Join(s.cfg.Dir, "wal.log") }

// foldRowLocked folds one canonical (sorted, validated) row into the counts
// and the row buffer. Caller holds mu (or has exclusive access during New).
func (s *Server) foldRowLocked(row []int32) error {
	s.intConv = s.intConv[:0]
	for _, v := range row {
		s.intConv = append(s.intConv, int(v))
	}
	if err := s.counts.AppendRow(s.intConv); err != nil {
		return err
	}
	if err := s.buf.Append(row); err != nil {
		return err
	}
	for _, v := range row {
		s.dirty[int(v)] = true
	}
	return nil
}

// Start launches the commit and recompute loops. If replay left the state
// ahead of the last computed topology, the first recompute is triggered
// immediately and readiness waits for it.
func (s *Server) Start() {
	s.startOnce.Do(func() {
		go s.ingestLoop()
		go s.recomputeLoop()
		s.wakeRecompute()
	})
}

func (s *Server) wakeRecompute() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// enqueue admits a batch into the commit queue, enforcing the row bound.
// Returns (nil, false) when the queue is full and (nil, true) when the
// server is draining.
func (s *Server) enqueue(b batch, rows int) (pb *pendingBatch, draining bool, ok bool) {
	s.gateMu.RLock()
	defer s.gateMu.RUnlock()
	if s.draining.Load() {
		return nil, true, false
	}
	if s.queueRows.Add(int64(rows)) > int64(s.cfg.QueueRows) {
		s.queueRows.Add(int64(-rows))
		return nil, false, false
	}
	pb = &pendingBatch{b: b, done: make(chan struct{})}
	select {
	case s.batches <- pb:
		return pb, false, true
	default:
		s.queueRows.Add(int64(-rows))
		return nil, false, false
	}
}

// ingestLoop is the single committer: it drains the queue in groups,
// frames each batch into the WAL, makes the group durable with one fsync,
// folds the rows into state, and acks. One goroutine, so WAL appends and
// folds are naturally ordered — queue order IS log order IS row order.
func (s *Server) ingestLoop() {
	defer close(s.ingestDone)
	for {
		pb, ok := <-s.batches
		if !ok {
			return
		}
		group := []*pendingBatch{pb}
		closed := false
	fill:
		for len(group) < 256 {
			select {
			case pb2, ok2 := <-s.batches:
				if !ok2 {
					closed = true
					break fill
				}
				group = append(group, pb2)
			default:
				break fill
			}
		}
		s.commitGroup(group)
		if closed {
			return
		}
	}
}

// commitGroup appends, fsyncs, folds, and acks one group of batches.
func (s *Server) commitGroup(group []*pendingBatch) {
	ctx := s.values
	rec := obs.From(ctx)

	s.walMu.Lock()
	// Partition: already-acked ids become duplicate acks; a repeated id
	// within the group rides on its first occurrence's outcome.
	first := make(map[uint64]*pendingBatch, len(group))
	var fresh []*pendingBatch
	s.mu.Lock()
	for _, pb := range group {
		if s.seen[pb.b.id] {
			pb.dup = true
			continue
		}
		if _, inGroup := first[pb.b.id]; inGroup {
			continue
		}
		first[pb.b.id] = pb
		fresh = append(fresh, pb)
	}
	s.mu.Unlock()

	var appended []*pendingBatch
	for _, pb := range fresh {
		if err := s.wal.Append(ctx, pb.b.id, pb.b.rows); err != nil {
			pb.err = fmt.Errorf("wal append: %w", err)
			s.cfg.Logf("serve: %v", pb.err)
			continue
		}
		appended = append(appended, pb)
	}
	if len(appended) > 0 {
		if err := s.wal.Sync(ctx); err != nil {
			// The frames are in the log but not durable: fail every batch
			// of the group. Retries re-frame them; replay dedups by id.
			s.cfg.Logf("serve: group fsync failed: %v", err)
			for _, pb := range appended {
				pb.err = fmt.Errorf("wal sync: %w", err)
			}
			appended = nil
		}
	}

	var rowsFolded int64
	if len(appended) > 0 {
		s.mu.Lock()
		hadPending := uint64(s.buf.Beta()) != s.topo.rows
		for _, pb := range appended {
			for _, row := range pb.b.rows {
				if err := s.foldRowLocked(row); err != nil {
					// Rows are validated before enqueue and the fold accepts
					// exactly that canonical form; a failure here is a bug.
					panic(fmt.Sprintf("serve: fold of validated row failed: %v", err))
				}
			}
			s.seen[pb.b.id] = true
			rowsFolded += int64(len(pb.b.rows))
		}
		s.mu.Unlock()
		now := time.Now().UnixNano()
		s.lastIngest.Store(now)
		if !hadPending {
			s.firstPending.Store(now)
		}
		rec.Counter("serve/ingest/rows").Add(rowsFolded)
		rec.Counter("serve/ingest/batches").Add(int64(len(appended)))
	}
	s.walMu.Unlock()

	// Ack outside the locks: repeated-in-group batches inherit their
	// first occurrence's outcome, everyone releases queue budget.
	for _, pb := range group {
		if !pb.dup && pb.err == nil {
			if f := first[pb.b.id]; f != nil && f != pb {
				if f.err != nil {
					pb.err = f.err
				} else {
					pb.dup = true
				}
			}
		}
		s.queueRows.Add(int64(-len(pb.b.rows)))
		close(pb.done)
	}
	if rowsFolded > 0 {
		s.wakeRecompute()
	}
}

// recomputeLoop waits for folds, debounces, and re-infers. Debounce makes
// a burst of batches cost one inference; MaxLag bounds staleness when the
// stream never pauses.
func (s *Server) recomputeLoop() {
	defer close(s.recomputeDone)
	for {
		select {
		case <-s.loopCtx.Done():
			return
		case <-s.wake:
		}
		for {
			s.mu.Lock()
			pending := uint64(s.buf.Beta()) != s.topo.rows
			s.mu.Unlock()
			if !pending {
				break
			}
			now := time.Now().UnixNano()
			wait := time.Duration(s.lastIngest.Load()-now) + s.cfg.Debounce
			if lag := time.Duration(s.firstPending.Load()-now) + s.cfg.MaxLag; lag < wait {
				wait = lag
			}
			if wait <= 0 {
				if err := s.recompute(s.loopCtx, true); err != nil {
					if s.loopCtx.Err() != nil {
						return
					}
					// Injected (or organic) failure: retry after a debounce
					// interval — there may be no further ingest to wake us.
					time.AfterFunc(s.cfg.Debounce, s.wakeRecompute)
					break
				}
				continue
			}
			select {
			case <-s.loopCtx.Done():
				return
			case <-time.After(wait):
			}
		}
	}
}

// recompute runs one inference cycle over a consistent snapshot of the
// folded state and installs the result as the next topology epoch.
func (s *Server) recompute(ctx context.Context, withChaos bool) error {
	rec := obs.From(ctx)
	if withChaos {
		if err := chaos.Maybe(ctx, chaos.SiteRecompute); err != nil {
			rec.Counter("serve/recompute/failed").Inc()
			s.cfg.Logf("serve: recompute cycle failed: %v", err)
			return err
		}
	}
	s.mu.Lock()
	rows := uint64(s.buf.Beta())
	if rows == s.topo.rows {
		s.mu.Unlock()
		return nil
	}
	sm := s.buf.Matrix()
	src := s.counts.Source()
	active := len(s.counts.ActiveNodes())
	dirtyCount := len(s.dirty)
	s.firstPending.Store(time.Now().UnixNano())
	s.mu.Unlock()

	res, err := core.InferFromSource(ctx, sm, src, s.cfg.Infer)
	if err != nil {
		rec.Counter("serve/recompute/failed").Inc()
		s.cfg.Logf("serve: inference failed at %d rows: %v", rows, err)
		return err
	}

	s.mu.Lock()
	s.dirty = make(map[int]bool)
	s.topo = &topology{
		epoch:     s.topo.epoch + 1,
		rows:      rows,
		threshold: res.Threshold,
		parents:   res.Parents,
		degraded:  res.Degraded,
	}
	s.mu.Unlock()
	s.ready.Store(true)
	rec.Counter("serve/recompute/cycles").Inc()
	rec.Counter("serve/recompute/nodes").Add(int64(active))
	rec.Counter("serve/recompute/dirty").Add(int64(dirtyCount))
	rec.Counter("serve/recompute/degraded").Add(int64(len(res.Degraded)))
	if len(res.Degraded) > 0 {
		s.cfg.Logf("serve: epoch %d computed over %d rows with %d degraded nodes", s.Epoch(), rows, len(res.Degraded))
	}

	if s.cfg.SnapshotEvery > 0 && rows-s.lastSnapRows() >= uint64(s.cfg.SnapshotEvery) {
		if err := s.persistSnapshot(); err != nil {
			s.cfg.Logf("serve: periodic snapshot failed: %v", err)
		}
	}
	return nil
}

func (s *Server) lastSnapRows() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSnap
}

// snapshotLocked assembles the persistent state. Rows alias the buffer
// (immutable once appended), so the caller may encode outside mu.
func (s *Server) snapshotLocked() *snapshot {
	snap := &snapshot{
		n:           s.cfg.N,
		traditional: s.cfg.Infer.TraditionalMI,
		rows:        make([][]int32, s.buf.Beta()),
		ids:         make([]uint64, 0, len(s.seen)),
		topo:        s.topo,
	}
	for p := range snap.rows {
		snap.rows[p] = s.buf.Row(p)
	}
	for id := range s.seen {
		snap.ids = append(snap.ids, id)
	}
	return snap
}

// persistSnapshot writes the snapshot atomically and resets the WAL to an
// empty generation. walMu blocks commits for the duration, so the row
// count cannot advance between the snapshot encode and the WAL reset —
// resetting can therefore never discard an acked row.
func (s *Server) persistSnapshot() error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	s.mu.Lock()
	snap := s.snapshotLocked()
	rows := uint64(s.buf.Beta())
	s.mu.Unlock()
	if err := writeSnapshot(s.snapPath(), snap); err != nil {
		return err
	}
	if err := s.wal.Reset(rows); err != nil {
		return err
	}
	s.mu.Lock()
	s.lastSnap = rows
	s.mu.Unlock()
	obs.From(s.values).Counter("serve/snapshot/persisted").Inc()
	return nil
}

// DefaultDrainTimeout is the drain budget applied when Config.DrainTimeout
// is zero.
const DefaultDrainTimeout = 30 * time.Second

// ErrDrainDeadline marks a graceful drain that ran out of its budget: the
// topology, snapshot, or WAL close did not finish in time. Acked rows are
// still durable in the WAL; only the final recompute/snapshot convenience
// was lost. Serve's error wraps this sentinel on a breach.
var ErrDrainDeadline = errors.New("serve: drain deadline exceeded")

// DrainStatus is the server's durability position, for the structured
// shutdown summary an operator surface prints when a drain breaches its
// deadline: what was acked, what was still queued (and therefore dropped
// unacked), and where the WAL stands.
type DrainStatus struct {
	// RowsAcked is how many rows were acked (durable; survives kill -9).
	RowsAcked uint64 `json:"rows_acked"`
	// QueueRows is how many rows were still queued for commit — their
	// clients never got an ack, so dropping them is contractually safe.
	QueueRows int64 `json:"queue_rows"`
	// WALRows and WALBytes are the write-ahead log's position: rows
	// appended since its base snapshot, and its byte size.
	WALRows  int64 `json:"wal_rows"`
	WALBytes int64 `json:"wal_bytes"`
}

// DrainStatus reports the current durability position. Safe to call at any
// point, including after a failed or timed-out drain.
func (s *Server) DrainStatus() DrainStatus {
	s.walMu.Lock()
	wr, wb := s.wal.Rows(), s.wal.Size()
	s.walMu.Unlock()
	s.mu.Lock()
	acked := uint64(s.buf.Beta())
	s.mu.Unlock()
	return DrainStatus{
		RowsAcked: acked,
		QueueRows: s.queueRows.Load(),
		WALRows:   wr,
		WALBytes:  wb,
	}
}

// Drain gracefully stops the server: new ingests are rejected, the queued
// batches commit and ack, the in-flight recompute finishes, a final
// recompute brings the topology current, and a snapshot is persisted. Safe
// to call once; later calls return the first result.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		// Wait out in-flight enqueuers, then close the commit queue; the
		// ingest loop drains what's left and acks it.
		s.gateMu.Lock()
		close(s.batches)
		s.gateMu.Unlock()
		<-s.ingestDone

		s.loopCancel()
		<-s.recomputeDone

		// Final recompute over everything acked, chaos-exempt: injected
		// faults must not be able to block shutdown. The synchronous budget
		// check matters: AfterFunc delivers an already-expired ctx's
		// cancellation asynchronously, and a small recompute could win that
		// race and mask the breach.
		if err := ctx.Err(); err != nil {
			s.drainErr = fmt.Errorf("serve: drain recompute: %w", err)
			return
		}
		dctx, dcancel := context.WithCancel(s.values)
		defer dcancel()
		stop := context.AfterFunc(ctx, dcancel)
		defer stop()
		if err := s.recompute(dctx, false); err != nil {
			s.drainErr = fmt.Errorf("serve: drain recompute: %w", err)
			return
		}
		if err := s.persistSnapshot(); err != nil {
			s.drainErr = err
			return
		}
		s.drainErr = s.wal.Close()
	})
	return s.drainErr
}

// Kill abandons the server without draining, snapshotting, or flushing —
// the in-process stand-in for kill -9 in crash-recovery tests. Queued
// batches fail; acked data stays durable in the WAL.
func (s *Server) Kill() {
	s.draining.Store(true)
	s.gateMu.Lock()
	select {
	case <-s.ingestDone:
	default:
		close(s.batches)
	}
	s.gateMu.Unlock()
	<-s.ingestDone
	s.loopCancel()
	<-s.recomputeDone
	s.wal.Close()
}

// Quiesce blocks until the queue is empty and the topology covers every
// acked row, or ctx fires. Test and loadtest helper.
func (s *Server) Quiesce(ctx context.Context) error {
	for {
		s.mu.Lock()
		current := uint64(s.buf.Beta()) == s.topo.rows
		s.mu.Unlock()
		if current && s.queueRows.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Rows returns the acked row count.
func (s *Server) Rows() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return uint64(s.buf.Beta())
}

// Epoch returns the current topology epoch.
func (s *Server) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.topo.epoch
}

// heapPressure samples the live heap (at most every 250ms) and reports
// whether it exceeds the configured gate.
func (s *Server) heapPressure() bool {
	if s.cfg.MaxHeapBytes <= 0 {
		return false
	}
	now := time.Now().UnixNano()
	last := s.heapCheck.Load()
	if now-last > 250*int64(time.Millisecond) && s.heapCheck.CompareAndSwap(last, now) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.heapLive.Store(int64(ms.HeapAlloc))
	}
	return s.heapLive.Load() > s.cfg.MaxHeapBytes
}
