package pgrid

import (
	"fmt"
	"strings"
)

// routeFrom walks references from the start peer towards a peer responsible
// for key (path a prefix of key), returning its index and the hop count.
// Each hop resolves at least one more key bit, so the walk terminates within
// Depth hops on a well-formed grid; a defensive guard catches damaged
// reference tables.
func (g *Grid) routeFrom(start int, key string) (peer, hops int, err error) {
	cur := start
	guard := 4*g.cfg.Depth + 4
	for hops = 0; hops <= guard; hops++ {
		p := g.peers[cur]
		if strings.HasPrefix(key, p.Path) {
			g.routeCount++
			g.routeHops += hops
			return cur, hops, nil
		}
		l := commonPrefixLen(p.Path, key)
		if l >= len(p.refs) || len(p.refs[l]) == 0 {
			return 0, hops, fmt.Errorf("%w: peer %d (path %s) has no reference at level %d for key %s", ErrUnreachable, cur, p.Path, l, key)
		}
		refs := p.refs[l]
		cur = refs[g.rng.Intn(len(refs))]
	}
	return 0, hops, fmt.Errorf("%w: routing loop guard tripped for key %s", ErrUnreachable, key)
}

// Insert routes from a random peer to the key's responsible peer and stores
// the value at every replica (each peer whose path prefixes the key),
// modelling the replica-group broadcast of the original protocol. The key
// must be a Depth-bit binary string (use KeyFor).
func (g *Grid) Insert(key, value string) error {
	return g.InsertBatch(key, []string{value})
}

// InsertBatch stores several values under one key with a single routed walk:
// the route to the responsible peer is resolved once for the whole group,
// then every value lands at every replica — where repeated Insert calls pay
// the full O(log N) routing (and its reference lookups) per value. Complaint
// batches (ComplaintStore.FileBatch) group their values by key precisely to
// hit this path. The key must be a Depth-bit binary string (use KeyFor).
func (g *Grid) InsertBatch(key string, values []string) error {
	if len(values) == 0 {
		return nil
	}
	if err := g.checkKey(key); err != nil {
		return err
	}
	// Any insert attempt advances the mutation generation, even one that then
	// fails to route — a spurious cache invalidation is safe, a missed one is
	// not. Reads never bump it.
	g.mutations++
	if _, _, err := g.routeFrom(g.rng.Intn(len(g.peers)), key); err != nil {
		return fmt.Errorf("insert %s: %w", key, err)
	}
	stored := false
	for _, p := range g.peers {
		if strings.HasPrefix(key, p.Path) {
			p.store[key] = append(p.store[key], values...)
			stored = true
		}
	}
	if !stored {
		return fmt.Errorf("insert %s: %w", key, ErrUnreachable)
	}
	return nil
}

// Query routes from a random peer and returns the reached replica's values
// for the key (none when that replica is malicious) along with the hop
// count.
func (g *Grid) Query(key string) (values []string, hops int, err error) {
	if err := g.checkKey(key); err != nil {
		return nil, 0, err
	}
	idx, hops, err := g.routeFrom(g.rng.Intn(len(g.peers)), key)
	if err != nil {
		return nil, hops, fmt.Errorf("query %s: %w", key, err)
	}
	p := g.peers[idx]
	if p.Malicious {
		return nil, hops, nil
	}
	return cloneValues(p.store[key]), hops, nil
}

// QueryReplicas issues r independent routed queries (random start peers, so
// typically distinct replicas) and returns the answers of the reachable
// replicas — an answer may be empty when the replica holds (or admits to
// holding) nothing. The error reports a completely unreachable key.
func (g *Grid) QueryReplicas(key string, r int) ([][]string, error) {
	if r <= 0 {
		r = 1
	}
	answers := make([][]string, 0, r)
	var lastErr error
	for i := 0; i < r; i++ {
		vals, _, err := g.Query(key)
		if err != nil {
			lastErr = err
			continue
		}
		answers = append(answers, vals)
	}
	if len(answers) == 0 {
		return nil, lastErr
	}
	return answers, nil
}

// MedianCount runs QueryReplicas and returns the median of countFn(answer)
// across the reachable replicas — the robust aggregate the complaint store
// uses against corrupted replicas.
func (g *Grid) MedianCount(key string, r int, countFn func([]string) int) (int, error) {
	answers, err := g.QueryReplicas(key, r)
	if err != nil {
		return 0, err
	}
	counts := make([]int, 0, len(answers))
	for _, a := range answers {
		counts = append(counts, countFn(a))
	}
	// Insertion sort: replica counts are tiny.
	for i := 1; i < len(counts); i++ {
		for j := i; j > 0 && counts[j] < counts[j-1]; j-- {
			counts[j], counts[j-1] = counts[j-1], counts[j]
		}
	}
	return counts[len(counts)/2], nil
}

func (g *Grid) checkKey(key string) error {
	if len(key) != g.cfg.Depth {
		return fmt.Errorf("pgrid: key %q length %d, want depth %d", key, len(key), g.cfg.Depth)
	}
	for i := 0; i < len(key); i++ {
		if key[i] != '0' && key[i] != '1' {
			return fmt.Errorf("pgrid: key %q is not binary", key)
		}
	}
	return nil
}

func cloneValues(vals []string) []string {
	if len(vals) == 0 {
		return nil
	}
	out := make([]string, len(vals))
	copy(out, vals)
	return out
}
