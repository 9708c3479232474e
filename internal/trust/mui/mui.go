// Package mui implements the computational trust model of Mui, Mohtashemi
// and Halberstadt (HICSS 2002) — reference [3] of the paper, its
// "theoretically well-founded" trust-computation option.
//
// The model is Bayesian: each agent keeps Beta-posterior counts of its
// direct encounters. When direct evidence is thin, the agent asks witnesses
// for their raw counts and pools them into its own posterior, discounting
// each witness's counts by the inquirer's trust in the witness (its
// estimated cooperation probability), multiplied along referral chains.
// Sample sizes therefore weigh in naturally through the counts themselves,
// and the Chernoff-bound reliability (trust.Reliability) of the pooled
// effective sample size gives the estimate's confidence — the role the
// bound plays in the original model.
//
// Witness discovery walks the acquaintance graph breadth-first up to a
// configurable depth, which reproduces the parallel-chain aggregation of the
// original model on the complete-graph case it analyses.
package mui

import (
	"sort"
	"sync"

	"trustcoop/internal/trust"
)

// Config tunes the witness network.
type Config struct {
	// Beta configures every agent's direct-experience estimator.
	Beta trust.BetaConfig
	// MaxDepth bounds referral chains: 1 consults only direct witnesses of
	// the target, 2 also witnesses-of-witnesses, … 0 means 1.
	MaxDepth int
	// MaxWitnesses bounds how many witnesses are consulted per query
	// (closest first, deterministic order); 0 means 16.
	MaxWitnesses int
	// Epsilon is the reliability tolerance; 0 means trust.DefaultEpsilon.
	Epsilon float64
}

func (c Config) withDefaults() Config {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 1
	}
	if c.MaxWitnesses <= 0 {
		c.MaxWitnesses = 16
	}
	if c.Epsilon <= 0 {
		c.Epsilon = trust.DefaultEpsilon
	}
	return c
}

// Network is the shared witness infrastructure: per-agent direct-experience
// tables plus the combination rule. It is safe for concurrent use.
type Network struct {
	cfg Config

	mu     sync.Mutex
	agents map[trust.PeerID]*trust.Beta
}

// NewNetwork returns an empty witness network.
func NewNetwork(cfg Config) *Network {
	return &Network{cfg: cfg.withDefaults(), agents: make(map[trust.PeerID]*trust.Beta)}
}

func (n *Network) table(agent trust.PeerID) *trust.Beta {
	n.mu.Lock()
	defer n.mu.Unlock()
	t := n.agents[agent]
	if t == nil {
		t = trust.NewBeta(n.cfg.Beta)
		n.agents[agent] = t
	}
	return t
}

// Record stores a direct observation by observer about target.
func (n *Network) Record(observer, target trust.PeerID, o trust.Outcome) {
	n.table(observer).Record(target, o)
}

// Estimate predicts target's behaviour from observer's perspective, pooling
// the observer's direct counts with chain-trust-discounted witness counts
// into a single Beta posterior.
func (n *Network) Estimate(observer, target trust.PeerID) trust.Estimate {
	coop, defect := n.table(observer).Counts(target)
	for _, w := range n.witnesses(observer, target) {
		wc, wd := n.table(w.id).Counts(target)
		if wc+wd == 0 {
			continue
		}
		coop += w.chainTrust * wc
		defect += w.chainTrust * wd
	}
	a0, b0 := n.cfg.Beta.PriorAlpha, n.cfg.Beta.PriorBeta
	if a0 <= 0 {
		a0 = 1
	}
	if b0 <= 0 {
		b0 = 1
	}
	samples := coop + defect
	return trust.Estimate{
		P:          (a0 + coop) / (a0 + b0 + samples),
		Confidence: trust.Reliability(samples, n.cfg.Epsilon),
		Samples:    samples,
	}
}

type witnessRef struct {
	id         trust.PeerID
	chainTrust float64 // product of cooperation estimates along the chain
}

// witnesses walks the acquaintance graph breadth-first from observer,
// collecting up to MaxWitnesses agents (other than observer and target) that
// hold direct evidence about target. The chain trust of a witness is the
// product of each hop's estimated cooperation probability.
func (n *Network) witnesses(observer, target trust.PeerID) []witnessRef {
	cfg := n.cfg
	visited := map[trust.PeerID]bool{observer: true, target: true}
	frontier := []witnessRef{{id: observer, chainTrust: 1}}
	var out []witnessRef
	for depth := 0; depth < cfg.MaxDepth && len(out) < cfg.MaxWitnesses; depth++ {
		var next []witnessRef
		for _, node := range frontier {
			table := n.table(node.id)
			peers := table.Peers() // sorted: deterministic walk
			for _, p := range peers {
				if visited[p] {
					continue
				}
				visited[p] = true
				est := table.Estimate(p)
				ref := witnessRef{id: p, chainTrust: node.chainTrust * est.P}
				next = append(next, ref)
				if coop, defect := n.table(p).Counts(target); coop+defect > 0 {
					out = append(out, ref)
					if len(out) >= cfg.MaxWitnesses {
						return out
					}
				}
			}
		}
		frontier = next
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// View adapts the network to the trust.Estimator interface from one agent's
// perspective, so the rest of the system can consume Mui trust like any
// other estimator.
func (n *Network) View(observer trust.PeerID) trust.Estimator {
	return &view{net: n, observer: observer}
}

type view struct {
	net      *Network
	observer trust.PeerID
}

var _ trust.Estimator = (*view)(nil)

func (v *view) Record(peer trust.PeerID, o trust.Outcome) {
	v.net.Record(v.observer, peer, o)
}

func (v *view) Estimate(peer trust.PeerID) trust.Estimate {
	return v.net.Estimate(v.observer, peer)
}
