package gossip

import (
	"testing"

	"trustcoop/internal/trust/complaints"
)

// TestNodeReadAccounting pins the parity clause of the O(1) read path: an
// average served from the aggregate (NoteScanReads) moves the fabric's
// stale-read ledger exactly like the CountsAll scan it replaces — stale at
// a shard with pending inbound evidence, fresh at the origin shard — and
// covers the Index/noteReads plumbing the engine's accounting uses.
func TestNodeReadAccounting(t *testing.T) {
	f, err := NewFabric(Config{Period: 1}, 23, 2)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 2; k++ {
		f.Node(k).Attach(complaints.NewShardedStore(4))
	}
	if got := f.Node(1).index; got != 1 {
		t.Fatalf("Index() = %d, want 1", got)
	}
	// A complaint at shard 0 leaves shard 1 with pending inbound evidence:
	// shard 1's reads are stale, shard 0's own reads stay fresh.
	if err := f.Node(0).File(complaints.Complaint{From: "a", About: "b"}); err != nil {
		t.Fatal(err)
	}
	f.Node(1).NoteScanReads(4) // aggregate-served population read, stale
	f.Node(0).noteReads(3)     // origin-shard reads, fresh
	f.Node(1).NoteScanReads(0) // no-op leg
	f.Node(0).noteReads(0)     // no-op leg
	st := f.Stats()
	if st.Reads != 7 || st.StaleReads != 4 {
		t.Fatalf("reads=%d stale=%d, want 7 and 4", st.Reads, st.StaleReads)
	}
}
