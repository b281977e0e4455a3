package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tends/internal/chaos"
	"tends/internal/core"
	"tends/internal/diffusion"
	"tends/internal/graph"
	"tends/internal/obs"
)

// testConfig returns a fast-twitch config for tests: tiny debounce so
// recomputes land promptly, tight request timeout so stuck tests fail fast.
func testConfig(dir string, n int) Config {
	return Config{
		N:              n,
		Dir:            dir,
		Debounce:       2 * time.Millisecond,
		MaxLag:         50 * time.Millisecond,
		RequestTimeout: 5 * time.Second,
		Recorder:       obs.New(),
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs
}

// testRows draws a reproducible workload of final-status rows.
func testRows(seed int64, beta, n int) [][]int32 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]int32, beta)
	for r := range rows {
		rows[r] = []int32{}
		density := []float64{0, 0.1, 0.3, 0.6}[r%4]
		for v := 0; v < n; v++ {
			if rng.Float64() < density {
				rows[r] = append(rows[r], int32(v))
			}
		}
	}
	return rows
}

func postIngest(t *testing.T, url string, id uint64, rows [][]int32) (int, ingestResponse) {
	t.Helper()
	body, err := json.Marshal(ingestRequest{ID: fmt.Sprint(id), Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ir ingestResponse
	json.NewDecoder(resp.Body).Decode(&ir)
	return resp.StatusCode, ir
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// batchTopologyText runs the batch inference over rows and renders the
// graph in the text format — the reference bytes /topology?format=text
// must reproduce exactly.
func batchTopologyText(t *testing.T, rows [][]int32, n int, opt core.Options) string {
	t.Helper()
	sm := diffusion.NewStatusMatrix(len(rows), n)
	for p, row := range rows {
		for _, v := range row {
			sm.Set(p, int(v), true)
		}
	}
	res, err := core.Infer(sm, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.Write(&buf, res.Graph); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func quiesce(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Quiesce(ctx); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
}

func TestServerIngestAndQuery(t *testing.T) {
	const n, beta = 24, 40
	rows := testRows(5, beta, n)
	s, hs := newTestServer(t, testConfig(t.TempDir(), n))

	for i := 0; i < beta; i += 5 {
		code, ir := postIngest(t, hs.URL, uint64(i/5+1), rows[i:i+5])
		if code != http.StatusOK {
			t.Fatalf("batch %d: status %d", i/5, code)
		}
		if ir.Acked != 5 || ir.Duplicate {
			t.Fatalf("batch %d: resp %+v", i/5, ir)
		}
	}
	quiesce(t, s)

	code, topoText := getBody(t, hs.URL+"/topology?format=text")
	if code != http.StatusOK {
		t.Fatalf("topology status %d", code)
	}
	want := batchTopologyText(t, rows, n, core.Options{})
	if string(topoText) != want {
		t.Fatalf("streamed topology differs from batch:\n%s\nwant:\n%s", topoText, want)
	}

	// /rows dumps the acked history in the exact statuses text format.
	sm := diffusion.NewStatusMatrix(beta, n)
	for p, row := range rows {
		for _, v := range row {
			sm.Set(p, int(v), true)
		}
	}
	var wantRows bytes.Buffer
	sm.WriteStatus(&wantRows)
	code, gotRows := getBody(t, hs.URL+"/rows")
	if code != http.StatusOK || !bytes.Equal(gotRows, wantRows.Bytes()) {
		t.Fatalf("/rows mismatch (status %d, %d vs %d bytes)", code, len(gotRows), wantRows.Len())
	}

	// JSON topology view + parents endpoint agree.
	code, topoJSON := getBody(t, hs.URL+"/topology")
	if code != http.StatusOK {
		t.Fatalf("topology json status %d", code)
	}
	var view topoView
	if err := json.Unmarshal(topoJSON, &view); err != nil {
		t.Fatal(err)
	}
	if view.Rows != beta || view.AckedRows != beta || view.Epoch == 0 {
		t.Fatalf("view header %+v", view)
	}
	for v := 0; v < n; v++ {
		code, pj := getBody(t, fmt.Sprintf("%s/parents?node=%d", hs.URL, v))
		if code != http.StatusOK {
			t.Fatalf("parents(%d) status %d", v, code)
		}
		var pr struct {
			Parents []int `json:"parents"`
		}
		json.Unmarshal(pj, &pr)
		want := view.Parents[v]
		if len(pr.Parents) != len(want) {
			t.Fatalf("parents(%d) = %v, view says %v", v, pr.Parents, want)
		}
	}
	if code, _ := getBody(t, hs.URL+"/parents?node=-1"); code != http.StatusBadRequest {
		t.Fatalf("parents(-1) status %d", code)
	}

	if code, _ := getBody(t, hs.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz %d", code)
	}
	if code, _ := getBody(t, hs.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz %d", code)
	}
	code, statsBody := getBody(t, hs.URL+"/stats")
	if code != http.StatusOK || !strings.Contains(string(statsBody), "acked_rows") {
		t.Fatalf("stats %d: %s", code, statsBody)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestServerDedupAndValidation(t *testing.T) {
	s, hs := newTestServer(t, testConfig(t.TempDir(), 8))
	rows := [][]int32{{0, 1}, {2}}

	if code, ir := postIngest(t, hs.URL, 42, rows); code != http.StatusOK || ir.Duplicate {
		t.Fatalf("first send: %d %+v", code, ir)
	}
	code, ir := postIngest(t, hs.URL, 42, rows)
	if code != http.StatusOK || !ir.Duplicate || ir.Rows != 2 {
		t.Fatalf("retry: %d %+v, want duplicate ack at 2 rows", code, ir)
	}

	// Unsorted input is canonicalized, not rejected.
	if code, _ := postIngest(t, hs.URL, 43, [][]int32{{5, 3, 1}}); code != http.StatusOK {
		t.Fatalf("unsorted row: %d", code)
	}
	// Dirty rows are 400s and ack nothing.
	if code, _ := postIngest(t, hs.URL, 44, [][]int32{{0, 99}}); code != http.StatusBadRequest {
		t.Fatal("out-of-range row accepted")
	}
	if code, _ := postIngest(t, hs.URL, 45, [][]int32{{1, 1}}); code != http.StatusBadRequest {
		t.Fatal("duplicate id row accepted")
	}
	resp, err := http.Post(hs.URL+"/ingest", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: %d", resp.StatusCode)
	}
	// Empty batch is a trivial 200 without touching the log.
	if code, ir := postIngest(t, hs.URL, 46, nil); code != http.StatusOK || ir.Acked != 0 {
		t.Fatalf("empty batch: %d %+v", code, ir)
	}
	if s.Rows() != 3 {
		t.Fatalf("rows = %d, want 3", s.Rows())
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestServerBackpressure(t *testing.T) {
	cfg := testConfig(t.TempDir(), 8)
	cfg.QueueRows = 3
	s, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The committer is NOT started: the queue only fills.
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	// Prefill the queue below the row bound (the committer isn't running,
	// so these 2 rows stay queued).
	if _, _, ok := s.enqueue(batch{id: 1, rows: [][]int32{{0}, {1}}}, 2); !ok {
		t.Fatal("prefill batch rejected")
	}

	// Queue admission is checked synchronously: 2 rows queued, another 2
	// would exceed QueueRows=3.
	body2, _ := json.Marshal(ingestRequest{ID: "2", Rows: [][]int32{{2}, {3}}})
	resp2, err := http.Post(hs.URL+"/ingest", "application/json", bytes.NewReader(body2))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	rec := cfg.Recorder
	if rec.Counter("serve/ingest/rejected").Value() == 0 ||
		rec.Counter("serve/ingest/rejected_queue").Value() == 0 {
		t.Fatal("rejection counters did not move")
	}
	s.wal.Close()
}

func TestServerInflightAndMemoryGate(t *testing.T) {
	cfg := testConfig(t.TempDir(), 8)
	cfg.MaxInflight = 4
	s, hs := newTestServer(t, cfg)

	s.inflight.Add(4) // simulate saturated admission
	if code, _ := postIngest(t, hs.URL, 1, [][]int32{{0}}); code != http.StatusServiceUnavailable {
		t.Fatalf("inflight-saturated status %d, want 503", code)
	}
	s.inflight.Add(-4)

	s.cfg.MaxHeapBytes = 1 // everything is over this gate
	s.heapCheck.Store(0)
	if code, _ := postIngest(t, hs.URL, 2, [][]int32{{0}}); code != http.StatusServiceUnavailable {
		t.Fatal("memory-gated ingest accepted")
	}
	if cfg.Recorder.Counter("serve/ingest/rejected_memory").Value() == 0 {
		t.Fatal("memory rejection not counted")
	}
	s.cfg.MaxHeapBytes = 0
	if code, _ := postIngest(t, hs.URL, 3, [][]int32{{0}}); code != http.StatusOK {
		t.Fatal("ingest still rejected after gate lifted")
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServerDrainRestart is the graceful path: drain persists a snapshot,
// and a restarted server answers queries with the pre-shutdown topology
// before any recompute.
func TestServerDrainRestart(t *testing.T) {
	const n, beta = 20, 32
	dir := t.TempDir()
	rows := testRows(7, beta, n)
	s, hs := newTestServer(t, testConfig(dir, n))
	for i := 0; i < beta; i += 4 {
		if code, _ := postIngest(t, hs.URL, uint64(100+i), rows[i:i+4]); code != http.StatusOK {
			t.Fatalf("ingest %d failed", i)
		}
	}
	quiesce(t, s)
	_, wantTopo := getBody(t, hs.URL+"/topology?format=text")
	wantEpoch := s.Epoch()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Draining rejects new work.
	if code, _ := postIngest(t, hs.URL, 999, [][]int32{{0}}); code != http.StatusServiceUnavailable {
		t.Fatal("ingest accepted while drained")
	}
	if code, _ := getBody(t, hs.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatal("ready while drained")
	}
	hs.Close()

	// After a clean drain the WAL is an empty generation.
	st, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err != nil || st.Size() != emptyWALSize {
		t.Fatalf("WAL after drain: %v bytes, want bare header", st.Size())
	}

	s2, replay, err := New(testConfig(dir, n))
	if err != nil {
		t.Fatal(err)
	}
	if replay.Rows != 0 || replay.Truncated != 0 {
		t.Fatalf("clean restart replayed %+v", replay)
	}
	if !s2.ready.Load() {
		t.Fatal("restarted server not immediately ready")
	}
	if s2.Epoch() != wantEpoch {
		t.Fatalf("epoch %d, want %d", s2.Epoch(), wantEpoch)
	}
	s2.Start()
	hs2 := httptest.NewServer(s2.Handler())
	defer hs2.Close()
	if code, got := getBody(t, hs2.URL+"/topology?format=text"); code != http.StatusOK || !bytes.Equal(got, wantTopo) {
		t.Fatalf("restarted topology differs")
	}
	// The stream continues across the restart.
	if code, _ := postIngest(t, hs2.URL, 7000, [][]int32{{0, 1, 2}}); code != http.StatusOK {
		t.Fatal("post-restart ingest failed")
	}
	quiesce(t, s2)
	if s2.Rows() != beta+1 || s2.Epoch() != wantEpoch+1 {
		t.Fatalf("after continue: rows %d epoch %d", s2.Rows(), s2.Epoch())
	}
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServerCrashRecovery is the kill -9 path: no drain, no snapshot —
// restart must replay the WAL and reproduce the batch topology over every
// acked row, byte-identically.
func TestServerCrashRecovery(t *testing.T) {
	const n, beta = 20, 36
	dir := t.TempDir()
	rows := testRows(9, beta, n)
	cfg := testConfig(dir, n)
	cfg.SnapshotEvery = 10 // force a mid-stream snapshot + WAL reset too
	s, hs := newTestServer(t, cfg)
	for i := 0; i < beta; i += 3 {
		if code, _ := postIngest(t, hs.URL, uint64(i+1), rows[i:i+3]); code != http.StatusOK {
			t.Fatalf("ingest %d failed", i)
		}
	}
	quiesce(t, s)
	hs.Close()
	s.Kill()

	// Simulate a torn tail on top of the crash: garbage after the last frame.
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x13, 0x37, 0xde, 0xad, 0xbe})
	f.Close()

	s2, replay, err := New(testConfig(dir, n))
	if err != nil {
		t.Fatal(err)
	}
	if replay.Truncated != 5 {
		t.Fatalf("truncated %d bytes, want 5", replay.Truncated)
	}
	if s2.Rows() != beta {
		t.Fatalf("recovered %d rows, want %d", s2.Rows(), beta)
	}
	s2.Start()
	hs2 := httptest.NewServer(s2.Handler())
	defer hs2.Close()
	quiesce(t, s2)
	_, got := getBody(t, hs2.URL+"/topology?format=text")
	want := batchTopologyText(t, rows, n, core.Options{})
	if string(got) != want {
		t.Fatalf("recovered topology differs from batch run:\n%s\nwant:\n%s", got, want)
	}
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Strict mode refuses the torn tail instead of recovering. Re-tear it.
	f, _ = os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0)
	f.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00})
	f.Close()
	strictCfg := testConfig(dir, n)
	strictCfg.StrictWAL = true
	if _, _, err := New(strictCfg); err == nil {
		t.Fatal("strict restart accepted a torn WAL")
	}
}

// TestServerDrainMidIngest drives concurrent writers while the server
// drains: every 200-acked batch must survive into the restarted server,
// in ack order.
func TestServerDrainMidIngest(t *testing.T) {
	const n = 16
	dir := t.TempDir()
	s, hs := newTestServer(t, testConfig(dir, n))

	var mu sync.Mutex
	acked := map[uint64][][]int32{}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := uint64(w*10000 + i)
				rows := testRows(int64(id), 2, n)
				body, _ := json.Marshal(ingestRequest{ID: fmt.Sprint(id), Rows: rows})
				resp, err := http.Post(hs.URL+"/ingest", "application/json", bytes.NewReader(body))
				if err != nil {
					return // server shut down mid-request
				}
				code := resp.StatusCode
				resp.Body.Close()
				if code == http.StatusOK {
					mu.Lock()
					acked[id] = rows
					mu.Unlock()
				} else if code == http.StatusServiceUnavailable {
					return // draining
				}
			}
		}(w)
	}
	// Let the writers land some batches, then drain under them.
	for s.Rows() < 20 {
		time.Sleep(time.Millisecond)
	}
	drainErr := s.Drain(context.Background())
	close(stop)
	wg.Wait()
	hs.Close()
	if drainErr != nil {
		t.Fatal(drainErr)
	}

	mu.Lock()
	wantRows := 0
	for _, rs := range acked {
		wantRows += len(rs)
	}
	mu.Unlock()
	if wantRows == 0 {
		t.Fatal("no batches acked before drain")
	}

	s2, _, err := New(testConfig(dir, n))
	if err != nil {
		t.Fatal(err)
	}
	if got := int(s2.Rows()); got != wantRows {
		t.Fatalf("restarted server has %d rows, writers saw %d acked", got, wantRows)
	}
	// The drain's final recompute covered everything: ready immediately,
	// topology current.
	if !s2.ready.Load() {
		t.Fatal("not ready after drain restart")
	}
	s2.Start()
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServerChaosAccounting arms error injection at every serve site and
// balances the books: injected faults equal observed failures, retries
// make every batch land exactly once, and the final topology still equals
// the batch run — chaos costs retries, never data.
func TestServerChaosAccounting(t *testing.T) {
	const n, beta = 18, 48
	dir := t.TempDir()
	rows := testRows(21, beta, n)
	inj := chaos.New(99, []chaos.Rule{
		{Site: chaos.SiteWALAppend, Kind: chaos.KindError, Rate: 0.15},
		{Site: chaos.SiteWALSync, Kind: chaos.KindError, Rate: 0.15},
		{Site: chaos.SiteIngestDecode, Kind: chaos.KindError, Rate: 0.1},
		{Site: chaos.SiteRecompute, Kind: chaos.KindError, Rate: 0.3},
	})
	cfg := testConfig(dir, n)
	cfg.Injector = inj
	cfg.ChaosSeed = 99
	s, hs := newTestServer(t, cfg)

	sent := 0
	for i := 0; i < beta; i += 2 {
		id := uint64(i + 1)
		for attempt := 0; ; attempt++ {
			if attempt > 200 {
				t.Fatalf("batch %d still failing after %d attempts", id, attempt)
			}
			code, _ := postIngest(t, hs.URL, id, rows[i:i+2])
			if code == http.StatusOK {
				break
			}
			if code != http.StatusBadRequest && code != http.StatusServiceUnavailable {
				t.Fatalf("batch %d: unexpected status %d", id, code)
			}
			sent++
		}
	}
	quiesce(t, s)
	if s.Rows() != beta {
		t.Fatalf("rows = %d, want %d (lost or duplicated acked rows)", s.Rows(), beta)
	}

	rec := cfg.Recorder
	checks := []struct {
		counter string
		site    string
	}{
		{"serve/wal/append_errors", chaos.SiteWALAppend},
		{"serve/wal/sync_errors", chaos.SiteWALSync},
		{"serve/ingest/decode_errors", chaos.SiteIngestDecode},
		{"serve/recompute/failed", chaos.SiteRecompute},
	}
	injectedTotal := int64(0)
	for _, c := range checks {
		injected := inj.Injected(c.site, chaos.KindError)
		observed := rec.Counter(c.counter).Value()
		if observed != injected {
			t.Errorf("%s = %d, injector says %d injected at %s", c.counter, observed, injected, c.site)
		}
		injectedTotal += injected
	}
	if injectedTotal == 0 {
		t.Fatal("chaos injected nothing; rates too low for this workload")
	}

	_, got := getBody(t, hs.URL+"/topology?format=text")
	want := batchTopologyText(t, rows, n, core.Options{})
	if string(got) != want {
		t.Fatal("topology under chaos differs from batch run")
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// And the books must still balance across a restart.
	s2, _, err := New(testConfig(dir, n))
	if err != nil {
		t.Fatal(err)
	}
	if s2.Rows() != beta {
		t.Fatalf("restart holds %d rows, want %d", s2.Rows(), beta)
	}
	s2.Start()
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestServerConfigMismatch: restarting against state from a different
// configuration must fail loudly, not silently mix histories.
func TestServerConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	s, hs := newTestServer(t, testConfig(dir, 8))
	postIngest(t, hs.URL, 1, [][]int32{{0, 1}})
	quiesce(t, s)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	hs.Close()

	if _, _, err := New(testConfig(dir, 9)); err == nil {
		t.Fatal("node-count mismatch accepted")
	}
	mis := testConfig(dir, 8)
	mis.Infer.TraditionalMI = true
	if _, _, err := New(mis); err == nil {
		t.Fatal("MI-mode mismatch accepted")
	}
}
