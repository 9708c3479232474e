package pgrid

import (
	"testing"

	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
)

func deferGrid(t *testing.T, seed int64, defer_ bool) *ComplaintStore {
	t.Helper()
	g, err := New(Config{Peers: 32, Seed: seed, DeferReplication: defer_})
	if err != nil {
		t.Fatal(err)
	}
	return &ComplaintStore{Grid: g}
}

// TestDeferredReplicationCountsMatchEager: whatever the write path —
// per-complaint File or FileBatch, eager fan-out or store-and-forward —
// every peer's replica-voted counts must agree once reads happen (reads
// flush their own key, so no explicit flush is even needed).
func TestDeferredReplicationCountsMatchEager(t *testing.T) {
	stream := batchStream(40)
	eager, deferred := deferGrid(t, 5, false), deferGrid(t, 5, true)
	for _, c := range stream {
		if err := eager.File(c); err != nil {
			t.Fatal(err)
		}
		if err := deferred.File(c); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 7; i++ {
		p := trust.PeerID(rotPeer(i))
		er, err := eager.Received(p)
		if err != nil {
			t.Fatal(err)
		}
		dr, err := deferred.Received(p)
		if err != nil {
			t.Fatal(err)
		}
		ef, err := eager.Filed(p)
		if err != nil {
			t.Fatal(err)
		}
		df, err := deferred.Filed(p)
		if err != nil {
			t.Fatal(err)
		}
		if er != dr || ef != df {
			t.Errorf("peer %s: deferred (%d,%d) != eager (%d,%d)", p, dr, df, er, ef)
		}
	}
}

func rotPeer(i int) string { return "agent-" + string(rune('0'+i)) }

// TestDeferredReplicationAmortisesReplicaWrites mirrors PR 4's routed-walk
// test for the broadcast half of the write path: the routing cost is
// unchanged (one walk per insert — already amortised by InsertBatch), but
// the per-replica store writes now defer entirely until a flush, and the
// flush pays one append pass per replica per key group instead of one per
// write.
func TestDeferredReplicationAmortisesReplicaWrites(t *testing.T) {
	stream := batchStream(40)

	eager := deferGrid(t, 9, false)
	for _, c := range stream {
		if err := eager.File(c); err != nil {
			t.Fatal(err)
		}
	}
	eagerRoutes, _ := eager.Grid.RouteStats()
	eagerWrites := eager.Grid.storeWrites
	if eagerWrites == 0 {
		t.Fatal("eager grid recorded no store writes")
	}

	deferred := deferGrid(t, 9, true)
	for _, c := range stream {
		if err := deferred.File(c); err != nil {
			t.Fatal(err)
		}
	}
	deferredRoutes, _ := deferred.Grid.RouteStats()
	if deferredRoutes != eagerRoutes {
		t.Errorf("deferred mode changed routing: %d walks vs eager %d", deferredRoutes, eagerRoutes)
	}
	if w := deferred.Grid.storeWrites; w != 0 {
		t.Errorf("store-and-forward wrote %d replica entries before any read or flush", w)
	}
	if err := deferred.Flush(); err != nil {
		t.Fatal(err)
	}
	if w := deferred.Grid.storeWrites; w != eagerWrites {
		t.Errorf("flushed replica writes = %d, eager = %d; the broadcast must deliver everything exactly once", w, eagerWrites)
	}
	// Flushing again is free — the buffers drained.
	if err := deferred.Flush(); err != nil {
		t.Fatal(err)
	}
	if w := deferred.Grid.storeWrites; w != eagerWrites {
		t.Errorf("second flush re-broadcast: writes %d, want %d", w, eagerWrites)
	}
}

// TestDeferredReplicationReadsFlushOnlyTheirKey: a read settles its own
// key's buffered group and leaves the rest buffered — store-and-forward per
// key, not a global barrier.
func TestDeferredReplicationReadsFlushOnlyTheirKey(t *testing.T) {
	store := deferGrid(t, 3, true)
	a := complaints.Complaint{From: "alice", About: "bob"}
	b := complaints.Complaint{From: "carol", About: "dave"}
	if err := store.FileBatch([]complaints.Complaint{a, b}); err != nil {
		t.Fatal(err)
	}
	if w := store.Grid.storeWrites; w != 0 {
		t.Fatalf("writes before read: %d", w)
	}
	n, err := store.Received("bob")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("received(bob) = %d through store-and-forward", n)
	}
	after := store.Grid.storeWrites
	if after == 0 {
		t.Error("read did not flush its key")
	}
	total := after
	if _, err := store.Filed("carol"); err != nil {
		t.Fatal(err)
	}
	if store.Grid.storeWrites <= total {
		t.Error("second key's group was flushed by the first read")
	}
}

// TestDeferredReplicationThroughRegistry: the backend spec plumbs the knob.
func TestDeferredReplicationThroughRegistry(t *testing.T) {
	store, err := complaints.Open("pgrid", complaints.BackendConfig{GridPeers: 32, Seed: 7, DeferReplication: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.File(complaints.Complaint{From: "a", About: "b"}); err != nil {
		t.Fatal(err)
	}
	if f, ok := store.(complaints.Flusher); !ok {
		t.Fatal("pgrid store is not a Flusher")
	} else if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	n, err := store.Received("b")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("received = %d", n)
	}
}
