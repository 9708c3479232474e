package trustd

import (
	"net/http/httptest"
	"testing"

	"trustcoop/internal/trust/complaints"
)

// TestClosedLoopEquivalence is the CI closed loop: a marketplace session
// trace replayed over real HTTP against a live server, every served score
// compared bit for bit (Float64bits) with the direct assessor's answer.
func TestClosedLoopEquivalence(t *testing.T) {
	for _, backend := range []string{"memory", "sharded", "async:sharded"} {
		t.Run(backend, func(t *testing.T) {
			cfg := LoadgenConfig{Sessions: 80, Seed: 3}
			_, peers, err := LoadgenAgents(cfg)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := Open(Options{Dir: t.TempDir(), Backend: backend, Population: peers})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			hs := httptest.NewServer(srv.Handler())
			defer hs.Close()

			rep, err := RunLoadgen(hs.URL, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Complaints == 0 {
				t.Fatal("trace filed no complaints; the loop tested nothing")
			}
			if rep.ScoreDivergence != 0 {
				t.Errorf("%d served scores diverged from the assessor (first: %s)",
					rep.ScoreDivergence, rep.FirstDivergence)
			}
		})
	}
}

// TestClosedLoopSurvivesRestart: the same trace's queries replayed against a
// server recovered from disk must also match bit for bit — recovery is part
// of the serving contract, not a separate mode.
func TestClosedLoopSurvivesRestart(t *testing.T) {
	cfg := LoadgenConfig{Sessions: 60, Seed: 4}
	_, peers, err := LoadgenAgents(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := Options{Dir: dir, Population: peers, CheckpointEvery: 64}
	srv, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	rep, err := RunLoadgen(hs.URL, cfg)
	hs.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ScoreDivergence != 0 {
		t.Fatalf("live pass diverged: %s", rep.FirstDivergence)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	hs2 := httptest.NewServer(srv2.Handler())
	defer hs2.Close()
	rep2, err := ReplayQueries(hs2.URL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.ScoreDivergence != 0 {
		t.Errorf("recovered pass diverged: %s", rep2.FirstDivergence)
	}
}

// TestClosedLoopStaleReadParity mirrors the ReadAccounter parity tests at
// the service boundary: a write-behind backend under trustd must account
// reads and stale reads exactly like the same backend driven directly by an
// assessor — whether the query is served by a scan, the O(1) aggregate, or
// the server's snapshot cache.
func TestClosedLoopStaleReadParity(t *testing.T) {
	cfg := LoadgenConfig{Sessions: 60, Seed: 5}
	ts, peers, err := simulateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Open(Options{Dir: t.TempDir(), Backend: "async:sharded", Population: peers})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	if _, err := RunLoadgen(hs.URL, cfg); err != nil {
		t.Fatal(err)
	}

	// Reference: the identical batch/flush/query sequence against the same
	// backend, driven directly — one NormalisedScore per peer, exactly the
	// read pattern ScoreOf mirrors.
	refStore, err := complaints.Open("async:sharded", complaints.BackendConfig{})
	if err != nil {
		t.Fatal(err)
	}
	bsz := cfg.withDefaults().Batch
	for off := 0; off < len(ts.trace); off += bsz {
		end := min(off+bsz, len(ts.trace))
		if err := complaints.FileAll(refStore, ts.trace[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := refStore.(complaints.Flusher).Flush(); err != nil {
		t.Fatal(err)
	}
	ref := complaints.Assessor{Store: refStore, Population: peers}
	for _, p := range peers {
		if _, err := ref.NormalisedScore(p); err != nil {
			t.Fatal(err)
		}
	}

	got := srv.store.(*complaints.AsyncStore).Stats()
	want := refStore.(*complaints.AsyncStore).Stats()
	if got.Enqueued != want.Enqueued || got.Applied != want.Applied {
		t.Errorf("pipeline accounting diverged: server %+v, direct %+v", got, want)
	}
	if got.Reads != want.Reads || got.StaleReads != want.StaleReads {
		t.Errorf("read accounting diverged: server reads=%d stale=%d, direct reads=%d stale=%d",
			got.Reads, got.StaleReads, want.Reads, want.StaleReads)
	}

	// Now leave a backlog in both pipelines (one complaint, below the flush
	// batch size) and read through it: the server's answer — cached or not —
	// must match the direct stale read, and so must the accounting.
	late := []complaints.Complaint{{From: peers[0], About: peers[1]}}
	if err := srv.Ingest(late); err != nil {
		t.Fatal(err)
	}
	if err := complaints.FileAll(refStore, late); err != nil {
		t.Fatal(err)
	}
	sc, err := srv.ScoreOf(peers[1])
	if err != nil {
		t.Fatal(err)
	}
	wantScore, err := ref.NormalisedScore(peers[1])
	if err != nil {
		t.Fatal(err)
	}
	if sc.Score != wantScore {
		t.Errorf("stale read diverged: served %v, direct %v", sc.Score, wantScore)
	}
	got = srv.store.(*complaints.AsyncStore).Stats()
	want = refStore.(*complaints.AsyncStore).Stats()
	if got.Reads != want.Reads || got.StaleReads != want.StaleReads {
		t.Errorf("backlogged read accounting diverged: server reads=%d stale=%d, direct reads=%d stale=%d",
			got.Reads, got.StaleReads, want.Reads, want.StaleReads)
	}
	if got.StaleReads == want.StaleReads && got.StaleReads == 0 {
		t.Error("no stale reads observed; the backlog phase tested nothing")
	}
}
