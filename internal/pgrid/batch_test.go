package pgrid

import (
	"fmt"
	"testing"

	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
)

func batchGrid(t *testing.T, seed int64) *ComplaintStore {
	t.Helper()
	g, err := New(Config{Peers: 32, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return &ComplaintStore{Grid: g}
}

func batchStream(n int) []complaints.Complaint {
	out := make([]complaints.Complaint, n)
	for i := range out {
		out[i] = complaints.Complaint{
			From:  trust.PeerID(fmt.Sprintf("agent-%d", i%7)),
			About: trust.PeerID(fmt.Sprintf("agent-%d", (i*3+1)%7)),
		}
	}
	return out
}

// TestFileBatchCountsMatchSingleFiles: the decentralised batch path must
// leave exactly the counts that per-complaint File leaves, for both indexes
// of every peer.
func TestFileBatchCountsMatchSingleFiles(t *testing.T) {
	stream := batchStream(40)
	single, batched := batchGrid(t, 5), batchGrid(t, 5)
	for _, c := range stream {
		if err := single.File(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := batched.FileBatch(stream); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		p := trust.PeerID(fmt.Sprintf("agent-%d", i))
		sr, err := single.Received(p)
		if err != nil {
			t.Fatal(err)
		}
		br, err := batched.Received(p)
		if err != nil {
			t.Fatal(err)
		}
		sf, err := single.Filed(p)
		if err != nil {
			t.Fatal(err)
		}
		bf, err := batched.Filed(p)
		if err != nil {
			t.Fatal(err)
		}
		if sr != br || sf != bf {
			t.Errorf("peer %s: batched (%d,%d) != single (%d,%d)", p, br, bf, sr, sf)
		}
	}
}

// TestFileBatchRoutesOncePerKey is the point of the batch path: a batch of N
// complaints over K distinct grid keys costs K routed walks, where N single
// File calls cost 2N (one per index insert). The complaint mix reuses 7
// peers, so K is far below 2N.
func TestFileBatchRoutesOncePerKey(t *testing.T) {
	stream := batchStream(40)

	single := batchGrid(t, 9)
	for _, c := range stream {
		if err := single.File(c); err != nil {
			t.Fatal(err)
		}
	}
	singleRoutes, _ := single.Grid.RouteStats()
	if singleRoutes != 2*len(stream) {
		t.Fatalf("single-file routes = %d, want %d", singleRoutes, 2*len(stream))
	}

	batched := batchGrid(t, 9)
	if err := batched.FileBatch(stream); err != nil {
		t.Fatal(err)
	}
	batchRoutes, _ := batched.Grid.RouteStats()
	// 7 From-peers and 7 About-peers appear, so at most 14 distinct keys.
	if batchRoutes > 14 {
		t.Errorf("batch routes = %d, want ≤ 14 (one per distinct key)", batchRoutes)
	}
	if batchRoutes >= singleRoutes {
		t.Errorf("batch path routed %d times, no better than single filing's %d", batchRoutes, singleRoutes)
	}
}

// TestFileBatchGroupingAdaptiveOnDepth pins the adaptive grouping threshold:
// an eager grid groups at any depth, a store-and-forward grid groups only at
// batchGroupMinDepth and deeper — a shallow deferred grid files per
// complaint (2N routed walks), a deep one routes once per distinct key. Both
// paths must leave identical replica counts.
func TestFileBatchGroupingAdaptiveOnDepth(t *testing.T) {
	stream := batchStream(40)
	const distinctKeys = 14 // 7 From-peers + 7 About-peers

	newStore := func(peers int, defer_ bool) *ComplaintStore {
		t.Helper()
		g, err := New(Config{Peers: peers, Seed: 9, DeferReplication: defer_})
		if err != nil {
			t.Fatal(err)
		}
		return &ComplaintStore{Grid: g}
	}

	// 32 peers auto-pick depth 4 — below the threshold: the deferred store
	// must file per complaint, the eager store must still group.
	shallow := newStore(32, true)
	if d := shallow.Grid.cfg.Depth; d >= batchGroupMinDepth {
		t.Fatalf("32-peer grid picked depth %d, want < %d", d, batchGroupMinDepth)
	}
	if shallow.Grid.GroupedBatchPays() {
		t.Error("shallow deferred grid reports grouping pays")
	}
	if err := shallow.FileBatch(stream); err != nil {
		t.Fatal(err)
	}
	if routes, _ := shallow.Grid.RouteStats(); routes != 2*len(stream) {
		t.Errorf("shallow deferred batch routed %d times, want %d (per-complaint filing)", routes, 2*len(stream))
	}

	eager := newStore(32, false)
	if !eager.Grid.GroupedBatchPays() {
		t.Error("eager grid reports grouping does not pay")
	}
	if err := eager.FileBatch(stream); err != nil {
		t.Fatal(err)
	}
	if routes, _ := eager.Grid.RouteStats(); routes > distinctKeys {
		t.Errorf("eager batch routed %d times, want ≤ %d (grouped)", routes, distinctKeys)
	}

	// 64 peers auto-pick depth 5 — at the threshold: deferred grids group.
	deep := newStore(64, true)
	if d := deep.Grid.cfg.Depth; d < batchGroupMinDepth {
		t.Fatalf("64-peer grid picked depth %d, want ≥ %d", d, batchGroupMinDepth)
	}
	if !deep.Grid.GroupedBatchPays() {
		t.Error("deep deferred grid reports grouping does not pay")
	}
	if err := deep.FileBatch(stream); err != nil {
		t.Fatal(err)
	}
	if routes, _ := deep.Grid.RouteStats(); routes > distinctKeys {
		t.Errorf("deep deferred batch routed %d times, want ≤ %d (grouped)", routes, distinctKeys)
	}

	// Both shallow paths (grouped eager, ungrouped deferred) leave the same
	// counts once the deferred store flushes.
	if err := shallow.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		p := trust.PeerID(fmt.Sprintf("agent-%d", i))
		er, err := eager.Received(p)
		if err != nil {
			t.Fatal(err)
		}
		dr, err := shallow.Received(p)
		if err != nil {
			t.Fatal(err)
		}
		if er != dr {
			t.Errorf("peer %s: ungrouped deferred count %d != grouped eager count %d", p, dr, er)
		}
	}
}

// TestFileBatchEmptyAndErrors: an empty batch is free; a batch over an
// unreachable grid reports the failure but attempts every group.
func TestFileBatchEmptyAndErrors(t *testing.T) {
	store := batchGrid(t, 3)
	routesBefore, _ := store.Grid.RouteStats()
	if err := store.FileBatch(nil); err != nil {
		t.Fatal(err)
	}
	if routes, _ := store.Grid.RouteStats(); routes != routesBefore {
		t.Errorf("empty batch routed %d times", routes-routesBefore)
	}
}
