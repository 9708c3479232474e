package pgrid

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

func balancedGrid(t *testing.T, peers, depth int) *Grid {
	t.Helper()
	g, err := New(Config{Peers: peers, Depth: depth, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Peers: 1}); err == nil {
		t.Error("1 peer accepted")
	}
	if _, err := New(Config{Peers: 4, Depth: 4}); err == nil {
		t.Error("4 peers at depth 4 accepted (needs 16)")
	}
}

func TestAutomaticDepth(t *testing.T) {
	g, err := New(Config{Peers: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// With minReplicas 2 and 64 peers: largest d with 2^d·2 ≤ 64 → d = 5
	// (32 leaves × 2 replicas).
	if g.cfg.Depth != 5 {
		t.Errorf("auto depth = %d, want 5", g.cfg.Depth)
	}
}

func TestBalancedPathsCoverAllLeaves(t *testing.T) {
	g := balancedGrid(t, 32, 3)
	seen := map[string]int{}
	for i, p := range g.peers {
		if len(p.Path) != 3 {
			t.Fatalf("peer %d path %q, want 3 bits", i, p.Path)
		}
		seen[p.Path]++
	}
	if len(seen) != 8 {
		t.Fatalf("leaves covered = %d, want 8", len(seen))
	}
	for leaf, n := range seen {
		if n != 4 {
			t.Errorf("leaf %s has %d replicas, want 4", leaf, n)
		}
	}
}

func TestKeyFor(t *testing.T) {
	g := balancedGrid(t, 16, 3)
	k := g.KeyFor("alice")
	if len(k) != 3 || strings.Trim(k, "01") != "" {
		t.Fatalf("KeyFor = %q, want 3-bit binary", k)
	}
	if g.KeyFor("alice") != k {
		t.Error("KeyFor not deterministic")
	}
	if g.KeyFor("bob") == k && g.KeyFor("carol") == k && g.KeyFor("dave") == k {
		t.Error("suspicious: four identifiers hash to the same key")
	}
}

func TestInsertQueryRoundTrip(t *testing.T) {
	g := balancedGrid(t, 16, 3)
	key := g.KeyFor("target")
	for i := 0; i < 5; i++ {
		if err := g.Insert(key, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	values, hops, err := g.Query(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != 5 {
		t.Fatalf("values = %v, want 5 entries", values)
	}
	if hops > g.cfg.Depth {
		t.Errorf("hops = %d, want ≤ depth %d", hops, g.cfg.Depth)
	}
}

func TestQueryEmptyKey(t *testing.T) {
	g := balancedGrid(t, 16, 3)
	values, _, err := g.Query("101")
	if err != nil {
		t.Fatal(err)
	}
	if values != nil {
		t.Errorf("empty key returned %v", values)
	}
}

func TestKeyValidation(t *testing.T) {
	g := balancedGrid(t, 16, 3)
	if err := g.Insert("01", "x"); err == nil {
		t.Error("short key accepted")
	}
	if err := g.Insert("01x", "x"); err == nil {
		t.Error("non-binary key accepted")
	}
	if _, _, err := g.Query("0101"); err == nil {
		t.Error("long key accepted")
	}
}

func TestHopsScaleLogarithmically(t *testing.T) {
	// Mean hops must grow with depth ~ linearly (hops ≤ depth = log2 leaves).
	var means []float64
	for _, depth := range []int{2, 4, 6} {
		g := balancedGrid(t, 3*(1<<depth), depth)
		key := g.KeyFor("k")
		if err := g.Insert(key, "v"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			if _, _, err := g.Query(key); err != nil {
				t.Fatal(err)
			}
		}
		_, mean := g.RouteStats()
		means = append(means, mean)
		if mean > float64(depth) {
			t.Errorf("depth %d: mean hops %.2f exceeds depth", depth, mean)
		}
	}
	if !(means[0] < means[1] && means[1] < means[2]) {
		t.Errorf("mean hops not increasing with depth: %v", means)
	}
}

func TestReplicationStoresAtAllReplicas(t *testing.T) {
	g := balancedGrid(t, 16, 3)
	key := g.KeyFor("x")
	if err := g.Insert(key, "v"); err != nil {
		t.Fatal(err)
	}
	replicas := 0
	for i, p := range g.peers {
		if strings.HasPrefix(key, p.Path) {
			if len(p.store[key]) != 1 {
				t.Errorf("replica %d missing the value", i)
			}
			replicas++
		}
	}
	if replicas != 2 {
		t.Errorf("replica count = %d, want 2 (16 peers / 8 leaves)", replicas)
	}
}

func TestMaliciousHideAndMedianVoting(t *testing.T) {
	g, err := New(Config{Peers: 40, Depth: 2, Seed: 3}) // 10 replicas per leaf
	if err != nil {
		t.Fatal(err)
	}
	key := g.KeyFor("victim")
	for i := 0; i < 7; i++ {
		if err := g.Insert(key, fmt.Sprintf("c%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Mark 25% malicious (hiding). The median over 5 queries should still
	// see the 7 values.
	g.MarkMalicious(0.25)
	count, err := g.MedianCount(key, 5, func(v []string) int { return len(v) })
	if err != nil {
		t.Fatal(err)
	}
	if count != 7 {
		t.Errorf("median count = %d, want 7 despite hiding minority", count)
	}
}

func TestMarkMaliciousFractionAndClamping(t *testing.T) {
	g := balancedGrid(t, 20, 2)
	marked := g.MarkMalicious(0.3)
	if len(marked) != 6 {
		t.Errorf("marked %d, want 6", len(marked))
	}
	if got := g.MarkMalicious(-1); len(got) != 0 {
		t.Error("negative fraction marked peers")
	}
	g2 := balancedGrid(t, 10, 2)
	if got := g2.MarkMalicious(5); len(got) != 10 {
		t.Errorf("fraction > 1 marked %d, want all 10", len(got))
	}
}

func TestUnreachableWithoutRefs(t *testing.T) {
	g := balancedGrid(t, 8, 2)
	// Strip every reference: only keys the start peer owns resolve.
	for _, p := range g.peers {
		p.refs = make([][]int, 2)
	}
	failures := 0
	for i := 0; i < 20; i++ {
		if _, _, err := g.Query(g.KeyFor(fmt.Sprintf("k%d", i))); err != nil {
			if !errors.Is(err, ErrUnreachable) {
				t.Fatalf("unexpected error type: %v", err)
			}
			failures++
		}
	}
	if failures == 0 {
		t.Error("expected at least one unreachable key with empty tables")
	}
}

func TestRouteStatsAccounting(t *testing.T) {
	g := balancedGrid(t, 16, 3)
	key := g.KeyFor("k")
	if err := g.Insert(key, "v"); err != nil {
		t.Fatal(err)
	}
	routesBefore, _ := g.RouteStats()
	for i := 0; i < 10; i++ {
		if _, _, err := g.Query(key); err != nil {
			t.Fatal(err)
		}
	}
	routes, mean := g.RouteStats()
	if routes != routesBefore+10 {
		t.Errorf("routes = %d, want %d", routes, routesBefore+10)
	}
	if mean < 0 || math.IsNaN(mean) {
		t.Errorf("mean hops = %f", mean)
	}
}
