// Package pgrid implements the P-Grid peer-to-peer access structure of
// Aberer (2001) that the paper's reference [2] stores its reputation data
// on: a binary-trie key space in which every peer is responsible for the
// keys sharing its path prefix and keeps, for every bit of its path, routing
// references to peers on the opposite side of the trie. Queries resolve one
// key bit per hop, giving O(log N) routing.
//
// The grid is built by a deterministic balanced assignment of paths to
// peers. Storage peers can be marked malicious — a malicious replica denies
// holding any data — to study Byzantine answers with replica voting
// (experiment E8).
//
// Grid methods are not safe for concurrent use; the simulator drives them
// from a single goroutine.
package pgrid

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
)

// Errors reported by grid operations.
var (
	// ErrUnreachable reports that routing could not reach a responsible
	// peer (missing routing references).
	ErrUnreachable = errors.New("pgrid: no route to responsible peer")
)

// Config parameterises grid construction.
type Config struct {
	// Peers is the number of peers; must be at least 2^Depth.
	Peers int
	// Depth is the trie depth: keys are Depth-bit strings. 0 picks the
	// largest depth that still gives every leaf at least minReplicas peers.
	Depth int
	// Seed drives all randomness in construction and routing.
	Seed int64
}

// refsPerLevel caps the routing references kept per path bit, and
// minReplicas is the minimum leaf population the automatic depth targets.
const (
	refsPerLevel = 3
	minReplicas  = 2
)

func (c Config) withDefaults() (Config, error) {
	if c.Peers < 2 {
		return c, fmt.Errorf("pgrid: need at least 2 peers, have %d", c.Peers)
	}
	if c.Depth <= 0 {
		d := 0
		for (1<<(d+1))*minReplicas <= c.Peers {
			d++
		}
		if d == 0 {
			d = 1
		}
		c.Depth = d
	}
	if c.Peers < 1<<c.Depth {
		return c, fmt.Errorf("pgrid: %d peers cannot populate depth %d (need ≥ %d)", c.Peers, c.Depth, 1<<c.Depth)
	}
	return c, nil
}

// Peer is one grid member.
type Peer struct {
	Index     int
	Path      string // binary prefix this peer is responsible for
	Malicious bool

	store map[string][]string
	refs  [][]int // per path bit: indices of peers across the trie
}

// Grid is the assembled overlay.
type Grid struct {
	cfg   Config
	peers []*Peer
	rng   *rand.Rand

	// mutations is the write-generation counter behind Mutations: it advances
	// on every insert attempt, so a cached population average is reused only
	// while no write could have changed any count.
	mutations uint64

	// message accounting for the experiments
	routeHops  int
	routeCount int
}

// New builds a grid per cfg.
func New(cfg Config) (*Grid, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	g := &Grid{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	g.peers = make([]*Peer, cfg.Peers)
	for i := range g.peers {
		g.peers[i] = &Peer{Index: i, store: make(map[string][]string)}
	}
	g.buildBalanced()
	return g, nil
}

// buildBalanced assigns paths round-robin over the 2^Depth leaves and wires
// complete reference tables.
func (g *Grid) buildBalanced() {
	d := g.cfg.Depth
	leaves := 1 << d
	for i, p := range g.peers {
		p.Path = bitString(i%leaves, d)
	}
	// Group peers by leaf for reference selection.
	byPrefix := make(map[string][]int)
	for i, p := range g.peers {
		for l := 1; l <= d; l++ {
			byPrefix[p.Path[:l]] = append(byPrefix[p.Path[:l]], i)
		}
	}
	for _, p := range g.peers {
		p.refs = make([][]int, d)
		for l := 0; l < d; l++ {
			opposite := p.Path[:l] + flip(p.Path[l])
			candidates := byPrefix[opposite]
			p.refs[l] = g.pickRefs(candidates, refsPerLevel)
		}
	}
}

// pickRefs samples up to k distinct indices from candidates.
func (g *Grid) pickRefs(candidates []int, k int) []int {
	if len(candidates) <= k {
		out := make([]int, len(candidates))
		copy(out, candidates)
		return out
	}
	perm := g.rng.Perm(len(candidates))
	out := make([]int, 0, k)
	for _, idx := range perm[:k] {
		out = append(out, candidates[idx])
	}
	return out
}

// MarkMalicious flips the given fraction of peers (chosen deterministically
// from the grid's seed) to malicious and returns their indices.
func (g *Grid) MarkMalicious(fraction float64) []int {
	if fraction < 0 {
		fraction = 0
	}
	if fraction > 1 {
		fraction = 1
	}
	n := int(fraction * float64(len(g.peers)))
	perm := g.rng.Perm(len(g.peers))
	out := make([]int, 0, n)
	for _, idx := range perm[:n] {
		g.peers[idx].Malicious = true
		out = append(out, idx)
	}
	return out
}

// KeyFor hashes an application identifier onto the grid's key space: a
// Depth-bit binary string (FNV-64a, most significant bits).
func (g *Grid) KeyFor(s string) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s)) // hash.Hash.Write never fails
	v := h.Sum64()
	var sb strings.Builder
	for i := 0; i < g.cfg.Depth; i++ {
		if v&(1<<(63-uint(i))) != 0 {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// RouteStats reports cumulative routing activity: queries routed and the
// mean hops per routed query.
func (g *Grid) RouteStats() (routes int, meanHops float64) {
	if g.routeCount == 0 {
		return 0, 0
	}
	return g.routeCount, float64(g.routeHops) / float64(g.routeCount)
}

// Mutations returns the grid's write-generation counter: it advances on
// every insert attempt and holds still across reads (flush-on-read included,
// which never changes what a count read returns). ComplaintStore exposes it
// as the complaints.MutationCounter extension, letting an assessor's
// snapshot cache skip the routed population scan between write bursts.
func (g *Grid) Mutations() uint64 { return g.mutations }

func bitString(v, width int) string {
	var sb strings.Builder
	for i := width - 1; i >= 0; i-- {
		if v&(1<<uint(i)) != 0 {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

func flip(b byte) string {
	if b == '0' {
		return "1"
	}
	return "0"
}

func commonPrefixLen(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
