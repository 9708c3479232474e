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

// TestFileBatchGroupingAdaptiveOnDepth: a batch groups its insertions by
// grid key at every trie depth, shallow (32 peers, depth 4) or at the
// 64-peer default (depth 5) — one routed walk per distinct key — and both
// grids count the batch exactly as per-complaint filing does.
func TestFileBatchGroupingAdaptiveOnDepth(t *testing.T) {
	stream := batchStream(40)
	const distinctKeys = 14 // 7 From-peers + 7 About-peers

	for _, tc := range []struct{ peers, depth int }{{32, 4}, {64, 5}} {
		newStore := func() *ComplaintStore {
			t.Helper()
			g, err := New(Config{Peers: tc.peers, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			if g.cfg.Depth != tc.depth {
				t.Fatalf("%d-peer grid picked depth %d, want %d", tc.peers, g.cfg.Depth, tc.depth)
			}
			return &ComplaintStore{Grid: g}
		}
		batched, single := newStore(), newStore()
		if err := batched.FileBatch(stream); err != nil {
			t.Fatal(err)
		}
		if routes, _ := batched.Grid.RouteStats(); routes > distinctKeys {
			t.Errorf("depth %d: batch routed %d times, want ≤ %d (grouped)", tc.depth, routes, distinctKeys)
		}
		for _, c := range stream {
			if err := single.File(c); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 7; i++ {
			p := trust.PeerID(fmt.Sprintf("agent-%d", i))
			br, err := batched.Received(p)
			if err != nil {
				t.Fatal(err)
			}
			sr, err := single.Received(p)
			if err != nil {
				t.Fatal(err)
			}
			if br != sr {
				t.Errorf("depth %d, peer %s: grouped count %d != per-complaint count %d", tc.depth, p, br, sr)
			}
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
