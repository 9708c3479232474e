package pgrid

import (
	"fmt"
	"testing"

	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
)

func TestComplaintStoreRoundTrip(t *testing.T) {
	g, err := New(Config{Peers: 32, Depth: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	store := &ComplaintStore{Grid: g}
	for i := 0; i < 6; i++ {
		if err := store.File(complaints.Complaint{From: trust.PeerID(fmt.Sprintf("victim%d", i)), About: "cheater"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.File(complaints.Complaint{From: "cheater", About: "victim0"}); err != nil {
		t.Fatal(err)
	}
	got, err := store.Received("cheater")
	if err != nil {
		t.Fatal(err)
	}
	if got != 6 {
		t.Errorf("Received(cheater) = %d, want 6", got)
	}
	filed, err := store.Filed("cheater")
	if err != nil {
		t.Fatal(err)
	}
	if filed != 1 {
		t.Errorf("Filed(cheater) = %d, want 1", filed)
	}
	if n, err := store.Received("bystander"); err != nil || n != 0 {
		t.Errorf("Received(bystander) = %d, %v; want 0, nil", n, err)
	}
}

// TestEncodeComplaintRoundTrip pins the length-prefixed encoding: every
// complaint — including PeerIDs containing the '>' separator, the ':'
// length delimiter, or digits — must decode back to exactly itself, and
// malformed values must be rejected rather than misattributed.
func TestEncodeComplaintRoundTrip(t *testing.T) {
	cases := []complaints.Complaint{
		{From: "a", About: "b"},
		{From: "", About: "b"},
		{From: "a", About: ""},
		{From: "ev>il", About: "victim"},
		{From: "a>b>c", About: ">x"},
		{From: "3:a", About: "1:b"},
		{From: "12>34", About: "56:78"},
	}
	for _, c := range cases {
		v := encodeComplaint(c)
		from, about, ok := decodeComplaint(v)
		if !ok || from != c.From || about != c.About {
			t.Errorf("round trip %+v → %q → (%q, %q, %v)", c, v, from, about, ok)
		}
	}
	// The old ambiguity: From "a>b" About "c" and From "a" About "b>c" used
	// to encode identically; now they must not.
	v1 := encodeComplaint(complaints.Complaint{From: "a>b", About: "c"})
	v2 := encodeComplaint(complaints.Complaint{From: "a", About: "b>c"})
	if v1 == v2 {
		t.Errorf("ambiguous encodings survive: %q == %q", v1, v2)
	}
	for _, bad := range []string{"", "a>b", ":a>b", "-1:>x", "5:ab>c", "2ab>c", "2:ab"} {
		if from, about, ok := decodeComplaint(bad); ok {
			t.Errorf("decodeComplaint(%q) = (%q, %q), want rejection", bad, from, about)
		}
	}
}

// TestComplaintStoreSeparatorPeerIDs runs the store end to end with hostile
// IDs: a peer whose ID embeds ">victim" must not be able to inflate the
// victim's received count.
func TestComplaintStoreSeparatorPeerIDs(t *testing.T) {
	g, err := New(Config{Peers: 32, Depth: 3, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	store := &ComplaintStore{Grid: g}
	evil := trust.PeerID("mallory>victim")
	if err := store.File(complaints.Complaint{From: evil, About: "other"}); err != nil {
		t.Fatal(err)
	}
	if err := store.File(complaints.Complaint{From: "witness", About: evil}); err != nil {
		t.Fatal(err)
	}
	if n, _ := store.Received("victim"); n != 0 {
		t.Errorf("Received(victim) = %d, want 0 — separator injection leaked", n)
	}
	if n, _ := store.Received(evil); n != 1 {
		t.Errorf("Received(%q) = %d, want 1", evil, n)
	}
	if n, _ := store.Filed(evil); n != 1 {
		t.Errorf("Filed(%q) = %d, want 1", evil, n)
	}
}

func TestComplaintStoreSurvivesMinorityHiding(t *testing.T) {
	g, err := New(Config{Peers: 60, Depth: 2, Seed: 10}) // 15 replicas/leaf
	if err != nil {
		t.Fatal(err)
	}
	store := &ComplaintStore{Grid: g, Replicas: 7}
	for i := 0; i < 9; i++ {
		if err := store.File(complaints.Complaint{From: trust.PeerID(fmt.Sprintf("v%d", i)), About: "crook"}); err != nil {
			t.Fatal(err)
		}
	}
	g.MarkMalicious(0.2)
	got, err := store.Received("crook")
	if err != nil {
		t.Fatal(err)
	}
	if got != 9 {
		t.Errorf("Received = %d under 20%% hiding, want 9 (median voting)", got)
	}
}

func TestComplaintStoreKeySeparation(t *testing.T) {
	// Complaints about p must not leak into p's filed count, even though
	// both live on the same grid.
	g, err := New(Config{Peers: 16, Depth: 2, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	store := &ComplaintStore{Grid: g}
	if err := store.File(complaints.Complaint{From: "a", About: "b"}); err != nil {
		t.Fatal(err)
	}
	if n, _ := store.Filed("b"); n != 0 {
		t.Errorf("Filed(b) = %d, want 0", n)
	}
	if n, _ := store.Received("a"); n != 0 {
		t.Errorf("Received(a) = %d, want 0", n)
	}
}

// TestComplaintStoreCollidingKeysCountOnce: a0's filed key and b900's
// received key are the same key on the registry's default grid (1 pair in
// 32 collides at its depth), and a count reads every value under its key.
// A complaint from a0 about b900, filed alone or in a batch, must count
// once on each side, as a control pair on distinct keys does.
func TestComplaintStoreCollidingKeysCountOnce(t *testing.T) {
	for _, tc := range []struct {
		from, about trust.PeerID
		collide     bool
	}{{"a0", "b900", true}, {"a0", "b1", false}} {
		for _, batched := range []bool{false, true} {
			backend, err := complaints.Open("pgrid", complaints.BackendConfig{Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			store := backend.(*ComplaintStore)
			if got := store.filedKey(tc.from) == store.recvKey(tc.about); got != tc.collide {
				t.Fatalf("%s→%s: keys collide = %v, want %v", tc.from, tc.about, got, tc.collide)
			}
			c := complaints.Complaint{From: tc.from, About: tc.about}
			if batched {
				err = store.FileBatch([]complaints.Complaint{c})
			} else {
				err = store.File(c)
			}
			if err != nil {
				t.Fatal(err)
			}
			recv, err := store.Received(tc.about)
			if err != nil {
				t.Fatal(err)
			}
			filed, err := store.Filed(tc.from)
			if err != nil {
				t.Fatal(err)
			}
			if recv != 1 || filed != 1 {
				t.Errorf("%s→%s (batched %v): Received = %d, Filed = %d; want 1 and 1", tc.from, tc.about, batched, recv, filed)
			}
		}
	}
}

func TestComplaintStoreWithAssessorEndToEnd(t *testing.T) {
	g, err := New(Config{Peers: 64, Depth: 3, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	store := &ComplaintStore{Grid: g, Replicas: 5}
	population := make([]trust.PeerID, 20)
	for i := range population {
		population[i] = trust.PeerID(fmt.Sprintf("p%d", i))
	}
	// p0 cheats everyone; everyone complains.
	for i := 1; i < 20; i++ {
		if err := store.File(complaints.Complaint{From: population[i], About: "p0"}); err != nil {
			t.Fatal(err)
		}
	}
	a := complaints.Assessor{Store: store, Population: population}
	ok, err := a.Trustworthy("p0")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("p0 should be flagged over the decentralised store")
	}
	ok, err = a.Trustworthy("p7")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("honest p7 flagged")
	}
}
