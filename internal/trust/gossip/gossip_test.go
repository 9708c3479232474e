package gossip

import (
	"fmt"
	"math/rand"
	"testing"

	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
)

func testPeers(n int) []trust.PeerID {
	ids := make([]trust.PeerID, n)
	for i := range ids {
		ids[i] = trust.PeerID(fmt.Sprintf("p:%d>x", i)) // separator chars on purpose
	}
	return ids
}

// newTestFabric builds a fabric whose nodes are attached to fresh stores of
// the given backend spec.
func newTestFabric(t *testing.T, cfg Config, shards int, backend string) *Fabric {
	t.Helper()
	f, err := NewFabric(cfg, 77, shards)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < shards; k++ {
		store, err := complaints.Open(backend, complaints.BackendConfig{BatchSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		f.Node(k).Attach(store)
	}
	return f
}

// randomStream builds a deterministic complaint stream over the peers.
func randomStream(rng *rand.Rand, ids []trust.PeerID, n int) []complaints.Complaint {
	out := make([]complaints.Complaint, n)
	for i := range out {
		out[i] = complaints.Complaint{From: ids[rng.Intn(len(ids))], About: ids[rng.Intn(len(ids))]}
	}
	return out
}

// fileRoundRobin partitions the stream round-robin across the fabric's
// nodes, exchanging after every `window` complaints per node — the shape of
// a cell running `window` sessions per shard between sync points.
func fileRoundRobin(t *testing.T, f *Fabric, stream []complaints.Complaint, window int) {
	t.Helper()
	n := len(f.nodes)
	idx := 0
	for idx < len(stream) {
		for k := 0; k < n; k++ {
			for w := 0; w < window && idx < len(stream); w++ {
				if err := f.Node(k).File(stream[idx]); err != nil {
					t.Fatal(err)
				}
				idx++
			}
		}
		if err := f.Exchange(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Drain(); err != nil {
		t.Fatal(err)
	}
}

// assertCountsEqualShared checks that, after delivery has drained, every
// node's per-peer counts equal a single shared store fed the same stream.
func assertCountsEqualShared(t *testing.T, f *Fabric, stream []complaints.Complaint, ids []trust.PeerID) {
	t.Helper()
	shared := complaints.NewMemoryStore()
	for _, c := range stream {
		if err := shared.File(c); err != nil {
			t.Fatal(err)
		}
	}
	want, err := complaints.CountsAll(shared, ids)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < len(f.nodes); k++ {
		got, err := f.Node(k).CountsAll(ids)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range ids {
			if got[i] != want[i] {
				t.Errorf("node %d peer %q: counts %+v, shared store %+v", k, p, got[i], want[i])
			}
		}
	}
}

// TestMeshPeriodOneEqualsSharedStore is the subsystem's headline property:
// full-mesh gossip at period 1 leaves every shard's store with exactly the
// per-peer counts a single shared store fed the same complaints holds — the
// period → 0 limit of the staleness spectrum. The property is exercised
// across shard counts, stream shapes and backends (including the striped
// store, whose batched apply path the exchange uses).
func TestMeshPeriodOneEqualsSharedStore(t *testing.T) {
	ids := testPeers(9)
	for _, shards := range []int{2, 3, 5} {
		for _, backend := range []string{"memory", "sharded"} {
			for streamSeed := int64(0); streamSeed < 4; streamSeed++ {
				name := fmt.Sprintf("shards=%d/%s/stream=%d", shards, backend, streamSeed)
				t.Run(name, func(t *testing.T) {
					f := newTestFabric(t, Config{Period: 1}, shards, backend)
					stream := randomStream(rand.New(rand.NewSource(streamSeed)), ids, 60+int(streamSeed)*7)
					fileRoundRobin(t, f, stream, 1)
					assertCountsEqualShared(t, f, stream, ids)
				})
			}
		}
	}
}

// TestMeshLargerWindowsStillConverge: whatever the window size, a full mesh
// delivers everything once drained — windows only delay, never drop.
func TestMeshLargerWindowsStillConverge(t *testing.T) {
	ids := testPeers(7)
	for _, window := range []int{2, 5, 17} {
		f := newTestFabric(t, Config{Period: window}, 4, "memory")
		stream := randomStream(rand.New(rand.NewSource(3)), ids, 83)
		fileRoundRobin(t, f, stream, window)
		assertCountsEqualShared(t, f, stream, ids)
	}
}

// TestRingDeliversExactlyOnce: ring relays forward origin-tagged batches hop
// by hop; after Drain every complaint has reached every shard exactly once,
// so counts equal the shared store — same property, minimal-traffic
// topology.
func TestRingDeliversExactlyOnce(t *testing.T) {
	ids := testPeers(8)
	for _, shards := range []int{2, 3, 6} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			f := newTestFabric(t, Config{Period: 2, Topology: TopologyRing}, shards, "sharded")
			stream := randomStream(rand.New(rand.NewSource(11)), ids, 90)
			fileRoundRobin(t, f, stream, 2)
			assertCountsEqualShared(t, f, stream, ids)
		})
	}
}

// TestRingSpreadsDeliveryOverRounds: both topologies end fully delivered
// (each complaint reaches every other shard exactly once — equal complaint
// and byte totals), but the ring pays for its 1-peer-per-round traffic shape
// with propagation delay: it needs extra drain rounds to finish the loops
// the mesh completes immediately.
func TestRingSpreadsDeliveryOverRounds(t *testing.T) {
	ids := testPeers(6)
	run := func(topo Topology) Stats {
		f := newTestFabric(t, Config{Period: 3, Topology: topo}, 5, "memory")
		stream := randomStream(rand.New(rand.NewSource(7)), ids, 120)
		fileRoundRobin(t, f, stream, 3)
		return f.Stats()
	}
	mesh, ring := run(TopologyMesh), run(TopologyRing)
	if mesh.ComplaintsDelivered != ring.ComplaintsDelivered || mesh.BytesDelivered != ring.BytesDelivered {
		t.Errorf("delivery totals differ: mesh %+v, ring %+v (both topologies deliver everything exactly once)", mesh, ring)
	}
	if ring.Rounds <= mesh.Rounds {
		t.Errorf("ring finished in %d rounds, mesh in %d; the ring must pay drain rounds for its hop-by-hop relay", ring.Rounds, mesh.Rounds)
	}
}

// TestMeshFanoutLimitsDeliveries: with Fanout f, each round's batch reaches
// exactly f peers — partial propagation, an intermediate information
// structure — and the rotating subset is seed-deterministic.
func TestMeshFanoutLimitsDeliveries(t *testing.T) {
	ids := testPeers(5)
	build := func() *Fabric { return newTestFabric(t, Config{Period: 1, Fanout: 1}, 4, "memory") }
	stream := randomStream(rand.New(rand.NewSource(5)), ids, 40)

	a, b := build(), build()
	fileRoundRobin(t, a, stream, 1)
	fileRoundRobin(t, b, stream, 1)
	sa, sb := a.Stats(), b.Stats()
	sa.ApplyNs, sb.ApplyNs = 0, 0 // wall clock, legitimately run-dependent
	if sa != sb {
		t.Errorf("same seed, same stream, different exchange accounting:\n%+v\nvs\n%+v", sa, sb)
	}
	// Every batch went to exactly one peer: delivered == filed, and the two
	// skipped peers per complaint are accounted as permanently unscheduled.
	if sa.ComplaintsDelivered != int64(len(stream)) {
		t.Errorf("fanout 1 delivered %d complaints for %d filed; want exactly one delivery each",
			sa.ComplaintsDelivered, len(stream))
	}
	if sa.ComplaintsUnscheduled != int64(2*len(stream)) {
		t.Errorf("fanout 1 over 4 shards skipped %d (complaint, peer) deliveries, want %d recorded as unscheduled",
			sa.ComplaintsUnscheduled, 2*len(stream))
	}
	// And the nodes' counts must now diverge from the shared store for some
	// peer on some node (only a third of the evidence reaches each shard).
	shared := complaints.NewMemoryStore()
	for _, c := range stream {
		if err := shared.File(c); err != nil {
			t.Fatal(err)
		}
	}
	diverged := false
	for k := 0; k < len(a.nodes); k++ {
		got, err := a.Node(k).CountsAll(ids)
		if err != nil {
			t.Fatal(err)
		}
		want, err := complaints.CountsAll(shared, ids)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ids {
			if got[i] != want[i] {
				diverged = true
			}
		}
	}
	if !diverged {
		t.Error("fanout-limited mesh reproduced the shared store exactly; partial propagation had no effect")
	}
}

// TestExchangeDeterministic: two fabrics with the same seed, config and
// filing sequence produce byte-identical delivery accounting and identical
// final counts — the determinism the lockstep cell runner builds on.
func TestExchangeDeterministic(t *testing.T) {
	ids := testPeers(6)
	for _, cfg := range []Config{
		{Period: 2},
		{Period: 2, Fanout: 2},
		{Period: 2, Topology: TopologyRing},
	} {
		run := func() (Stats, [][]complaints.Tally) {
			f := newTestFabric(t, cfg, 4, "memory")
			stream := randomStream(rand.New(rand.NewSource(13)), ids, 64)
			fileRoundRobin(t, f, stream, 2)
			var tallies [][]complaints.Tally
			for k := 0; k < len(f.nodes); k++ {
				ts, err := f.Node(k).CountsAll(ids)
				if err != nil {
					t.Fatal(err)
				}
				tallies = append(tallies, ts)
			}
			return f.Stats(), tallies
		}
		s1, t1 := run()
		s2, t2 := run()
		s1.ApplyNs, s2.ApplyNs = 0, 0 // wall clock, legitimately run-dependent
		if s1 != s2 {
			t.Errorf("%+v: stats diverged:\n%+v\nvs\n%+v", cfg, s1, s2)
		}
		for k := range t1 {
			for i := range t1[k] {
				if t1[k][i] != t2[k][i] {
					t.Errorf("%+v: node %d peer %d counts diverged", cfg, k, i)
				}
			}
		}
	}
}

// TestStaleReadAccounting: reads while a peer shard holds undelivered
// complaints count as stale; reads after the exchange do not; a shard's own
// undelivered outbox never makes its own reads stale.
func TestStaleReadAccounting(t *testing.T) {
	ids := testPeers(3)
	f := newTestFabric(t, Config{Period: 4}, 2, "memory")

	// Fresh fabric: nothing outstanding, reads are fresh.
	if _, err := f.Node(0).Received(ids[0]); err != nil {
		t.Fatal(err)
	}
	if s := f.Stats(); s.Reads != 1 || s.StaleReads != 0 {
		t.Fatalf("fresh read accounting: %+v", s)
	}

	// Node 0 files: its own reads stay fresh, node 1's become stale.
	if err := f.Node(0).File(complaints.Complaint{From: ids[0], About: ids[1]}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Node(0).Received(ids[1]); err != nil {
		t.Fatal(err)
	}
	if s := f.Stats(); s.StaleReads != 0 {
		t.Fatalf("own-outbox read counted stale: %+v", s)
	}
	if _, _, err := f.Node(1).Counts(ids[1]); err != nil {
		t.Fatal(err)
	}
	if s := f.Stats(); s.StaleReads != 1 {
		t.Fatalf("peer read while outbox pending not stale: %+v", s)
	}

	// After the exchange everything is delivered; reads are fresh again.
	if err := f.Exchange(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Node(1).Filed(ids[0]); err != nil {
		t.Fatal(err)
	}
	if s := f.Stats(); s.StaleReads != 1 {
		t.Fatalf("post-exchange read counted stale: %+v", s)
	}
}

// TestRingStaleReadsPerRecipient: staleness is per recipient — once a ring
// delivers a batch to its successor, the successor reads fresh even while
// the batch keeps relaying towards the remaining shards, whose reads stay
// stale until their hop arrives.
func TestRingStaleReadsPerRecipient(t *testing.T) {
	ids := testPeers(3)
	f := newTestFabric(t, Config{Period: 1, Topology: TopologyRing}, 3, "memory")
	if err := f.Node(0).File(complaints.Complaint{From: ids[0], About: ids[1]}); err != nil {
		t.Fatal(err)
	}
	if err := f.Exchange(); err != nil { // hop 0 → 1; still relaying towards 2
		t.Fatal(err)
	}
	stale := func() int64 { return f.Stats().StaleReads }
	before := stale()
	if _, err := f.Node(1).Received(ids[1]); err != nil { // already delivered here
		t.Fatal(err)
	}
	if got := stale(); got != before {
		t.Errorf("read at the already-served successor counted stale (%d → %d)", before, got)
	}
	if _, err := f.Node(2).Received(ids[1]); err != nil { // hop still in flight
		t.Fatal(err)
	}
	if got := stale(); got != before+1 {
		t.Errorf("read at the not-yet-served shard not counted stale (%d → %d)", before, got)
	}
	if err := f.Drain(); err != nil {
		t.Fatal(err)
	}
	before = stale()
	if _, err := f.Node(2).Received(ids[1]); err != nil {
		t.Fatal(err)
	}
	if got := stale(); got != before {
		t.Errorf("post-drain read counted stale (%d → %d)", before, got)
	}
}

// TestNodeDelegatesStoreExtensions: the node forwards the batched write and
// bulk read extensions and drains write-behind inner stores on Flush.
func TestNodeDelegatesStoreExtensions(t *testing.T) {
	ids := testPeers(4)
	f, err := NewFabric(Config{Period: 2}, 1234, 2)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := complaints.Open("async:sharded", complaints.BackendConfig{BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	f.Node(0).Attach(inner)
	other := complaints.NewMemoryStore()
	f.Node(1).Attach(other)

	batch := []complaints.Complaint{
		{From: ids[0], About: ids[1]},
		{From: ids[2], About: ids[1]},
		{From: ids[1], About: ids[3]},
	}
	if err := f.Node(0).FileBatch(batch); err != nil {
		t.Fatal(err)
	}
	// The write-behind inner store holds the batch in its queue (batch 64
	// never filled); Flush through the node must drain it.
	if err := f.Node(0).Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := f.Node(0).Received(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if r != 2 {
		t.Errorf("received(%s) = %d, want 2 after node Flush", ids[1], r)
	}
	if err := f.Exchange(); err != nil {
		t.Fatal(err)
	}
	got, _, err := f.Node(1).Counts(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("peer shard received(%s) = %d, want 2 after exchange", ids[1], got)
	}
	if err := f.Node(0).Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Node(1).Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestParseSpec covers the flag syntax.
func TestParseSpec(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Config
		ok   bool
	}{
		{"", Config{}, true},
		{"off", Config{}, true},
		{"16", Config{Period: 16}, true},
		{"16:ring", Config{Period: 16, Topology: TopologyRing}, true},
		{"8:ring2", Config{Period: 8, Topology: TopologyDoubleRing}, true},
		{"4:mesh:2", Config{Period: 4, Topology: TopologyMesh, Fanout: 2}, true},
		{"0", Config{}, true},
		{"-1", Config{}, false},
		{"x", Config{}, false},
		{"4:torus", Config{}, false},
		{"4:mesh:x", Config{}, false},
		{"4:mesh:2:9", Config{}, false},
	} {
		got, err := ParseSpec(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseSpec(%q): err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

// TestFabricRejectsBadShapes: gossip needs peers and a valid config.
func TestFabricRejectsBadShapes(t *testing.T) {
	if _, err := NewFabric(Config{Period: 4}, 1, 1); err == nil {
		t.Error("1-shard fabric accepted")
	}
	if _, err := NewFabric(Config{}, 1, 4); err == nil {
		t.Error("disabled-gossip fabric accepted")
	}
	if _, err := NewFabric(Config{Period: 4, Topology: "torus"}, 1, 4); err == nil {
		t.Error("unknown topology accepted")
	}
}

// TestNodeAttachContract: double attach, a nil store and use before attach
// are programmer errors and must panic loudly rather than split or drop
// evidence.
func TestNodeAttachContract(t *testing.T) {
	f, err := NewFabric(Config{Period: 1}, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("use before attach", func() { _, _ = f.Node(0).Received("p") })
	f.Node(0).Attach(complaints.NewMemoryStore())
	mustPanic("double attach", func() { f.Node(0).Attach(complaints.NewMemoryStore()) })
	mustPanic("attach nil", func() { f.Node(1).Attach(nil) })
}
