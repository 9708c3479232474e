package pgrid

import (
	"testing"

	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
)

// TestGridMutationsAdvanceOnWritesOnly pins the write-generation contract
// the assessor's snapshot cache depends on: every insert attempt advances
// the counter; reads never do.
func TestGridMutationsAdvanceOnWritesOnly(t *testing.T) {
	g, err := New(Config{Peers: 16, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	key := g.KeyFor("k")
	if got := g.Mutations(); got != 0 {
		t.Fatalf("fresh grid generation = %d, want 0", got)
	}
	if err := g.Insert(key, "v1"); err != nil {
		t.Fatal(err)
	}
	if got := g.Mutations(); got != 1 {
		t.Fatalf("after Insert generation = %d, want 1", got)
	}
	if err := g.InsertBatch(key, []string{"v2", "v3"}); err != nil {
		t.Fatal(err)
	}
	after := g.Mutations()
	if after != 2 {
		t.Fatalf("after InsertBatch generation = %d, want 2", after)
	}
	if _, _, err := g.Query(key); err != nil {
		t.Fatal(err)
	}
	if got := g.Mutations(); got != after {
		t.Fatalf("read moved generation %d -> %d", after, got)
	}
}

// TestAssessorCacheSkipsRoutedScans is the O(1)-for-pgrid half of the
// tentpole: an assessor built with NewAssessor over the decentralised store
// scans once per write generation — repeated trust decisions between writes
// reuse the cached average and issue no routed queries for the population
// scan (only the per-peer Counts pair). A literal Assessor keeps scanning.
func TestAssessorCacheSkipsRoutedScans(t *testing.T) {
	g, err := New(Config{Peers: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	store := &ComplaintStore{Grid: g}
	ids := []trust.PeerID{"a", "b", "c", "d", "e"}
	if err := store.File(complaints.Complaint{From: "a", About: "b"}); err != nil {
		t.Fatal(err)
	}

	cached := complaints.NewAssessor(store, ids)
	first, err := cached.NormalisedScore("b")
	if err != nil {
		t.Fatal(err)
	}
	routesAfterFirst, _ := g.RouteStats()
	second, err := cached.NormalisedScore("b")
	if err != nil {
		t.Fatal(err)
	}
	routesAfterSecond, _ := g.RouteStats()
	if second != first {
		t.Fatalf("cached score changed without writes: %v -> %v", first, second)
	}
	// The second decision must not have re-scanned the population: the only
	// routed work allowed is the per-peer Counts pair (2 replica-voted
	// counts), strictly fewer routes than the population scan's 2·len(ids).
	perDecision := routesAfterSecond - routesAfterFirst
	replicas := store.replicas()
	if perDecision != 2*replicas {
		t.Fatalf("cached decision routed %d queries, want the per-peer pair %d", perDecision, 2*replicas)
	}

	// A write moves the generation; the next decision re-scans.
	if err := store.File(complaints.Complaint{From: "c", About: "b"}); err != nil {
		t.Fatal(err)
	}
	routesBefore, _ := g.RouteStats()
	if _, err := cached.NormalisedScore("b"); err != nil {
		t.Fatal(err)
	}
	routesAfter, _ := g.RouteStats()
	if routesAfter-routesBefore <= 2*replicas {
		t.Fatalf("write did not invalidate the cache: only %d routes for a post-write decision", routesAfter-routesBefore)
	}
}

// TestComplaintStoreMutationsDelegate pins the ComplaintStore →
// Grid.Mutations plumbing, including through the async decorator stacking.
func TestComplaintStoreMutationsDelegate(t *testing.T) {
	store, err := complaints.Open("async:pgrid", complaints.BackendConfig{Seed: 3, GridPeers: 16, BatchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	mc, ok := store.(complaints.MutationCounter)
	if !ok {
		t.Fatal("async:pgrid does not expose MutationCounter")
	}
	gen0, ok := mc.Mutations()
	if !ok {
		t.Fatal("Mutations ok=false through async:pgrid")
	}
	// One filed complaint sits below the batch size: nothing applied, so the
	// generation — which tracks what reads can observe — must hold still.
	if err := store.File(complaints.Complaint{From: "x", About: "y"}); err != nil {
		t.Fatal(err)
	}
	if gen, _ := mc.Mutations(); gen != gen0 {
		t.Fatalf("buffered write moved the visible generation: %d -> %d", gen0, gen)
	}
	if err := store.(complaints.Flusher).Flush(); err != nil {
		t.Fatal(err)
	}
	if gen, _ := mc.Mutations(); gen == gen0 {
		t.Fatal("applied batch did not move the generation")
	}
}
