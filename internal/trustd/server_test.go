package trustd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"trustcoop/internal/testutil"
	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
)

// renderServerState is the byte-comparable form of a server's observable
// trust state: every peer's counters plus the population product aggregate.
// Two servers whose renderings are equal make identical trust decisions.
func renderServerState(t testing.TB, s *Server, peers []trust.PeerID) string {
	t.Helper()
	tallies, err := complaints.CountsAll(s.store, peers)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i, p := range peers {
		fmt.Fprintf(&b, "%s r=%d f=%d\n", p, tallies[i].Received, tallies[i].Filed)
	}
	if agg, ok := s.store.(complaints.Aggregator); ok {
		excess, tracked, aok, err := agg.ProductAggregate()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "aggregate excess=%d tracked=%d ok=%v\n", excess, tracked, aok)
	}
	return b.String()
}

// testBatches builds n deterministic complaint batches over k peers.
func testBatches(n, k int) [][]complaints.Complaint {
	peers := make([]trust.PeerID, k)
	for i := range peers {
		peers[i] = trust.PeerID(fmt.Sprintf("peer-%02d", i))
	}
	out := make([][]complaints.Complaint, n)
	for i := range out {
		size := 1 + i%4
		batch := make([]complaints.Complaint, size)
		for j := range batch {
			batch[j] = complaints.Complaint{
				From:  peers[(i+j)%k],
				About: peers[(i*3+j+1)%k],
			}
		}
		// Self-complaints are legal but skew nothing useful; shift them.
		for j := range batch {
			if batch[j].From == batch[j].About {
				batch[j].About = peers[(i*3+j+2)%k]
			}
		}
		out[i] = batch
	}
	return out
}

func batchPeers(batches [][]complaints.Complaint) []trust.PeerID {
	set := map[trust.PeerID]struct{}{}
	for _, b := range batches {
		for _, c := range b {
			set[c.From] = struct{}{}
			set[c.About] = struct{}{}
		}
	}
	peers := make([]trust.PeerID, 0, len(set))
	for p := range set {
		peers = append(peers, p)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	return peers
}

// referenceServerState files the batches into a fresh store of the same
// backend — the uncrashed reference every recovery is compared against.
func referenceServerState(t testing.TB, backend string, batches [][]complaints.Complaint, peers []trust.PeerID) string {
	t.Helper()
	if backend == "" {
		backend = "sharded"
	}
	store, err := complaints.Open(backend, complaints.BackendConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := complaints.FileAll(store, b); err != nil {
			t.Fatal(err)
		}
	}
	if f, ok := store.(complaints.Flusher); ok {
		if err := f.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	ref := &Server{store: store}
	return renderServerState(t, ref, peers)
}

// TestServerIngestQueryHTTP drives the full HTTP surface: binary delta in,
// JSON score out, and the served score equals the direct assessor's.
func TestServerIngestQueryHTTP(t *testing.T) {
	srv, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	batches := testBatches(10, 6)
	for _, b := range batches {
		body := complaints.NewDelta(b).Encode()
		resp, err := http.Post(hs.URL+"/v1/complaints", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var ack struct {
			Applied int `json:"applied"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || ack.Applied != len(b) {
			t.Fatalf("ingest: status %d, applied %d of %d", resp.StatusCode, ack.Applied, len(b))
		}
	}

	peers := batchPeers(batches)
	a := complaints.Assessor{Store: srv.store, Population: peers}
	// Compare the whole population against a server opened with the same
	// dynamic population (sorted seen == batchPeers by construction).
	for _, p := range peers {
		resp, err := http.Get(hs.URL + "/v1/score?peer=" + string(p))
		if err != nil {
			t.Fatal(err)
		}
		var sc Score
		if err := json.NewDecoder(resp.Body).Decode(&sc); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want, err := a.NormalisedScore(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(sc.Score) != math.Float64bits(want) {
			t.Errorf("peer %s: served score %v, assessor %v", p, sc.Score, want)
		}
	}

	// Error surface: empty batch, missing peer param, garbage body.
	resp, err := http.Post(hs.URL+"/v1/complaints", "application/octet-stream", bytes.NewReader(complaints.NewDelta(nil).Encode()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d", resp.StatusCode)
	}
	resp, err = http.Get(hs.URL + "/v1/score")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing peer param: status %d", resp.StatusCode)
	}
	resp, err = http.Post(hs.URL+"/v1/complaints", "application/octet-stream", bytes.NewReader([]byte{0xff, 0xfe}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage delta: status %d", resp.StatusCode)
	}
}

// zeros is an endless stream of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestIngestOversizedBody: a body one byte over maxIngestBytes is answered
// 413 with a JSON error, not 400 — the client must split the batch, not fix
// its encoding — and nothing is applied.
func TestIngestOversizedBody(t *testing.T) {
	srv, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	body := io.LimitReader(zeros{}, maxIngestBytes+1)
	req := httptest.NewRequest(http.MethodPost, "/v1/complaints", body)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413; body %q", rec.Code, rec.Body.String())
	}
	var resp struct{ Error string }
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Error == "" {
		t.Errorf("body %q (%v), want a JSON error", rec.Body.String(), err)
	}
	if g := srv.Stats().Generation; g != 0 {
		t.Errorf("oversized body advanced the generation to %d", g)
	}
}

// TestIngestAckBody pins an ingest's 200 body byte for byte: the applied
// count, then the generation, as one JSON line.
func TestIngestAckBody(t *testing.T) {
	srv, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i, want := range []string{`{"applied":3,"generation":1}` + "\n", `{"applied":3,"generation":2}` + "\n"} {
		body := complaints.NewDelta([]complaints.Complaint{{From: "a", About: "b"}, {From: "b", About: "c"}, {From: "a", About: "c"}}).Encode()
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/complaints", bytes.NewReader(body)))
		if rec.Code != http.StatusOK || rec.Body.String() != want {
			t.Fatalf("ingest %d: status %d, body %q; want 200, %q", i, rec.Code, rec.Body.String(), want)
		}
	}
}

// TestOpenRejectsNonFiniteFactor: a NaN or infinite threshold makes every
// Probability NaN, which encoding/json refuses after the status line is
// out — every score query would answer 200 with an empty body. Open refuses
// it before touching the directory.
func TestOpenRejectsNonFiniteFactor(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		dir := filepath.Join(t.TempDir(), "state")
		srv, err := Open(Options{Dir: dir, Factor: f})
		if err == nil {
			srv.Close()
			t.Fatalf("Open accepted Factor %v", f)
		}
		if !strings.Contains(err.Error(), "Factor") {
			t.Errorf("Open(Factor %v) = %v, want an error naming Factor", f, err)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("Open(Factor %v) touched the directory: %v", f, err)
		}
	}
}

// TestWriteJSONUnencodable: a value encoding/json refuses is answered 500
// with a JSON error body, not 200 with an empty one.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"p": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status %d, want 500", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q, want application/json", ct)
	}
	var body struct{ Error string }
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || !strings.Contains(body.Error, "NaN") {
		t.Errorf("body %q (%v), want a JSON error naming the NaN", rec.Body.String(), err)
	}

	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusCreated, map[string]int{"n": 1})
	if rec.Code != http.StatusCreated || rec.Body.String() != "{\"n\":1}\n" {
		t.Errorf("encodable value: status %d body %q", rec.Code, rec.Body.String())
	}
}

// TestServerRestartBitIdentical: a graceful stop and a WAL-only replay both
// recover the exact state, across backends.
func TestServerRestartBitIdentical(t *testing.T) {
	batches := testBatches(25, 8)
	peers := batchPeers(batches)
	for _, backend := range []string{"memory", "sharded", "async:sharded"} {
		t.Run(backend, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Dir: dir, Backend: backend}
			srv, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range batches {
				if err := srv.Ingest(b); err != nil {
					t.Fatal(err)
				}
			}
			if err := srv.Flush(); err != nil {
				t.Fatal(err)
			}
			want := renderServerState(t, srv, peers)
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}

			testutil.ByteIdentical(t,
				testutil.Variant{Name: "pre-restart", Run: func() (string, error) { return want, nil }},
				testutil.Variant{Name: "restarted", Run: func() (string, error) {
					srv2, err := Open(opts)
					if err != nil {
						return "", err
					}
					defer srv2.Close()
					return renderServerState(t, srv2, peers), nil
				}},
				testutil.Variant{Name: "reference", Run: func() (string, error) {
					return referenceServerState(t, backend, batches, peers), nil
				}},
			)
		})
	}
}

// TestServerCheckpointRotation: checkpoints rotate the WAL, retire old
// files, and recovery from checkpoint+tail is exact.
func TestServerCheckpointRotation(t *testing.T) {
	dir := t.TempDir()
	batches := testBatches(30, 7)
	peers := batchPeers(batches)
	opts := Options{Dir: dir, CheckpointEvery: 20} // several checkpoints over 30 batches
	srv, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := srv.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.Checkpoints == 0 {
		t.Fatal("no automatic checkpoint fired")
	}
	want := renderServerState(t, srv, peers)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wals, ckpts int
	for _, e := range entries {
		switch filepath.Ext(e.Name()) {
		case ".log":
			wals++
		case ".ckpt":
			ckpts++
		}
	}
	if wals != 1 || ckpts != 1 {
		t.Errorf("after rotation: %d WAL segments and %d checkpoints on disk, want 1 and 1", wals, ckpts)
	}

	srv2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	st2 := srv2.Stats()
	if st2.RecoveredCheckpointPeers == 0 {
		t.Error("recovery did not use the checkpoint")
	}
	if got := renderServerState(t, srv2, peers); got != want {
		t.Errorf("checkpoint+tail recovery diverged:\n%s", testutil.FirstDiff(want, got))
	}
}

// TestServerFsyncRecovers: with fsync on, every append is synced, and a
// run across several checkpoints and a kill recovers exactly.
func TestServerFsyncRecovers(t *testing.T) {
	batches := testBatches(30, 7)
	peers := batchPeers(batches)
	opts := Options{Dir: t.TempDir(), CheckpointEvery: 20, Fsync: true}
	srv, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := srv.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	if st := srv.Stats(); st.Checkpoints == 0 || st.WALFsyncs != st.WALAppends {
		t.Fatalf("%d checkpoints, %d fsyncs for %d appends; want > 0 and one fsync per append", st.Checkpoints, st.WALFsyncs, st.WALAppends)
	}
	srv.kill()
	srv2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	want := referenceServerState(t, "", batches, peers)
	if got := renderServerState(t, srv2, peers); got != want {
		t.Errorf("fsync recovery diverged:\n%s", testutil.FirstDiff(want, got))
	}
}

// TestServerScoreCache: repeated queries at one generation hit the cache and
// still serve the exact same bits; any ingest invalidates.
func TestServerScoreCache(t *testing.T) {
	srv, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	batches := testBatches(6, 5)
	for _, b := range batches {
		if err := srv.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	p := batchPeers(batches)[0]
	first, err := srv.ScoreOf(p)
	if err != nil {
		t.Fatal(err)
	}
	second, err := srv.ScoreOf(p)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Errorf("cache hit served different assessment: %+v vs %+v", first, second)
	}
	st := srv.Stats()
	if st.CacheHits == 0 || st.CacheMisses == 0 {
		t.Errorf("cache accounting: hits=%d misses=%d, want both nonzero", st.CacheHits, st.CacheMisses)
	}
	if err := srv.Ingest([]complaints.Complaint{{From: p, About: "newcomer"}}); err != nil {
		t.Fatal(err)
	}
	third, err := srv.ScoreOf(p)
	if err != nil {
		t.Fatal(err)
	}
	if third.Filed != first.Filed+1 {
		t.Errorf("post-ingest query served stale counts: filed %d, want %d", third.Filed, first.Filed+1)
	}
}

// TestTrustdHammer is the named -race CI step's target: ingest, query,
// automatic folds and manual checkpoints run concurrently, then the
// surviving state must equal a serial reference run of exactly the batches
// that were acked.
func TestTrustdHammer(t *testing.T) {
	dir := t.TempDir()
	// A small interval makes automatic folds overlap ingests and queries.
	srv, err := Open(Options{Dir: dir, Backend: "sharded", CheckpointEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	perWriter := 40
	if testing.Short() {
		perWriter = 10
	}
	var producers, readers sync.WaitGroup
	acked := make([][][]complaints.Complaint, writers)

	// Writers: disjoint complaint streams, every acked batch remembered.
	for w := 0; w < writers; w++ {
		producers.Add(1)
		go func(w int) {
			defer producers.Done()
			for i := 0; i < perWriter; i++ {
				batch := []complaints.Complaint{
					{From: trust.PeerID(fmt.Sprintf("w%d-a%d", w, i%5)), About: trust.PeerID(fmt.Sprintf("w%d-b%d", w, i%7))},
					{From: trust.PeerID(fmt.Sprintf("w%d-b%d", w, i%7)), About: trust.PeerID(fmt.Sprintf("w%d-a%d", w, (i+1)%5))},
				}
				if err := srv.Ingest(batch); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				acked[w] = append(acked[w], batch)
			}
		}(w)
	}
	// Readers: hammer the score path (cache + assessor) while writes land.
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := trust.PeerID(fmt.Sprintf("w%d-a%d", i%writers, i%5))
				if _, err := srv.ScoreOf(p); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
			}
		}(r)
	}
	// Checkpointer: snapshots race the writers and readers.
	producers.Add(1)
	go func() {
		defer producers.Done()
		for i := 0; i < 6; i++ {
			if err := srv.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()

	producers.Wait()
	close(stop)
	readers.Wait()
	var all [][]complaints.Complaint
	for w := 0; w < writers; w++ {
		all = append(all, acked[w]...)
	}
	peers := batchPeers(all)
	got := renderServerState(t, srv, peers)
	want := referenceServerState(t, "sharded", all, peers)
	if got != want {
		t.Errorf("concurrent state diverged from serial reference:\n%s", testutil.FirstDiff(want, got))
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// And the survivor must still recover bit-identically.
	srv2, err := Open(Options{Dir: dir, Backend: "sharded"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if got := renderServerState(t, srv2, peers); got != want {
		t.Errorf("post-hammer recovery diverged:\n%s", testutil.FirstDiff(want, got))
	}
	if srv.Stats().Checkpoints <= 6 {
		t.Errorf("%d checkpoints: no automatic fold overlapped the traffic", srv.Stats().Checkpoints)
	}
}

// randomBatch draws a batch of 1..maxSize complaints between peers p0..p(n-1).
func randomBatch(rng *rand.Rand, maxSize, n int) []complaints.Complaint {
	batch := make([]complaints.Complaint, 1+rng.Intn(maxSize))
	for j := range batch {
		batch[j] = complaints.Complaint{
			From:  trust.PeerID(fmt.Sprintf("p%d", rng.Intn(n))),
			About: trust.PeerID(fmt.Sprintf("p%d", rng.Intn(n))),
		}
	}
	return batch
}

// TestRetainedComplaintsBounded: the complaints a server holds for its next
// fold stay below CheckpointEvery between ingests, and a cut hands over at
// most CheckpointEvery plus one batch, then holds nothing — across a restart
// too, which retains the replayed WAL tail.
func TestRetainedComplaintsBounded(t *testing.T) {
	const every = 50
	opts := Options{Dir: t.TempDir(), CheckpointEvery: every}
	srv, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Close() }()
	retained := func() int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		n := len(srv.log)
		for _, c := range srv.cuts {
			n += len(c.log)
		}
		return n
	}
	rng := rand.New(rand.NewSource(5))
	cuts := 0
	for i := 0; i < 400; i++ {
		if i == 200 {
			srv.kill()
			if srv, err = Open(opts); err != nil {
				t.Fatal(err)
			}
		}
		batch := randomBatch(rng, 20, 300)
		before, ckpts := retained(), srv.Stats().Checkpoints
		if before >= every {
			t.Fatalf("batch %d: %d complaints retained before ingest, want < %d", i, before, every)
		}
		if err := srv.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		after := retained()
		if srv.Stats().Checkpoints == ckpts {
			if after != before+len(batch) {
				t.Fatalf("batch %d: retained %d → %d without a cut", i, before, after)
			}
			continue
		}
		cuts++
		if handed := before + len(batch); handed > every-1+len(batch) || after != 0 {
			t.Fatalf("batch %d: cut handed over %d complaints and kept %d; bound %d and 0", i, handed, after, every-1+len(batch))
		}
	}
	if cuts < 50 {
		t.Fatalf("only %d cuts", cuts)
	}
}

// TestSeenListIncremental: after random batches, with reads at random
// points and a restart mid-run, the seen list equals sort(keys(seen)), its
// index array holds each listed peer's index in seen, and every list and
// index array handed out earlier is unchanged (readers and cuts hold them
// outside mu).
func TestSeenListIncremental(t *testing.T) {
	opts := Options{Dir: t.TempDir(), CheckpointEvery: 40}
	srv, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { srv.Close() }()
	type handout struct {
		list, copy   []trust.PeerID
		idx, idxCopy []int32
	}
	var handouts []handout
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		if i == 150 {
			srv.kill()
			if srv, err = Open(opts); err != nil {
				t.Fatal(err)
			}
		}
		if err := srv.Ingest(randomBatch(rng, 6, 10+2*i)); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(3) != 0 {
			continue // later reads merge several batches' new peers at once
		}
		srv.mu.Lock()
		got, idx := srv.seenLocked(), srv.seenIdx
		want := make([]trust.PeerID, 0, len(srv.seen))
		for p := range srv.seen {
			want = append(want, p)
		}
		idxOK := len(idx) == len(got)
		for k := 0; idxOK && k < len(got); k++ {
			idxOK = srv.seen[got[k]] == idx[k]
		}
		srv.mu.Unlock()
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if !slices.Equal(got, want) {
			t.Fatalf("batch %d: seen list (%d peers) != sort(keys(seen)) (%d peers)", i, len(got), len(want))
		}
		if !idxOK {
			t.Fatalf("batch %d: the index array does not hold the seen list's indices", i)
		}
		handouts = append(handouts, handout{got, slices.Clone(got), idx, slices.Clone(idx)})
	}
	for i, h := range handouts {
		if !slices.Equal(h.list, h.copy) || !slices.Equal(h.idx, h.idxCopy) {
			t.Fatalf("seen list or index array handed out at read %d was modified later", i)
		}
	}
}
