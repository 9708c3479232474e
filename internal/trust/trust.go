// Package trust implements the paper's trust-learning module (Figure 1):
// turning records of past behaviour into probabilistic predictions of future
// behaviour. The paper defers the mechanism to two concrete models — a
// "theoretically well-founded" Bayesian model (Mui et al. [3], subpackage
// mui) and a practical P2P complaint-based model (Aberer–Despotovic [2],
// subpackage complaints). This package defines the shared vocabulary and the
// direct-experience Beta estimator both build on.
package trust

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// PeerID identifies a member of the community.
type PeerID string

// Outcome records one interaction result with a peer.
type Outcome struct {
	// Cooperated reports whether the peer behaved honestly (completed its
	// side of the exchange, reported truthfully, …).
	Cooperated bool
	// Weight scales the observation; 0 means 1 (a single ordinary
	// interaction). Larger weights suit high-value exchanges.
	Weight float64
}

func (o Outcome) weight() float64 {
	if o.Weight <= 0 {
		return 1
	}
	return o.Weight
}

// Estimate is a probabilistic prediction of a peer's future behaviour.
type Estimate struct {
	// P is the predicted probability the peer will cooperate.
	P float64
	// Confidence in [0, 1) grows with the evidence backing P (Chernoff-bound
	// reliability, see Reliability).
	Confidence float64
	// Samples is the effective number of observations behind the estimate.
	Samples float64
}

// Estimator is the trust-learning interface consumed by the decision module:
// record interaction outcomes, predict cooperation probabilities.
type Estimator interface {
	// Record feeds one interaction outcome with the peer.
	Record(peer PeerID, o Outcome)
	// Estimate predicts the peer's behaviour. Unknown peers yield the
	// estimator's prior with zero confidence.
	Estimate(peer PeerID) Estimate
}

// FallibleRecorder is an optional Estimator extension for estimators whose
// evidence writes can fail — e.g. ones backed by a decentralised or
// write-behind complaint store. Feedback paths (reputation.Feed) prefer
// TryRecord over Record so storage failures surface to the caller instead of
// silently dropping evidence.
type FallibleRecorder interface {
	// TryRecord feeds one interaction outcome with the peer and reports a
	// failure of the backing store.
	TryRecord(peer PeerID, o Outcome) error
}

// Reliability is the Chernoff-bound sample reliability used by Mui et al.:
// the probability that an empirical frequency over n observations lies
// within eps of the true rate, 1 − 2e^{−2·eps²·n}, clamped to [0, 1].
func Reliability(n, eps float64) float64 {
	if n <= 0 || eps <= 0 {
		return 0
	}
	r := 1 - 2*math.Exp(-2*eps*eps*n)
	if r < 0 {
		return 0
	}
	return r
}

// DefaultEpsilon is the estimation-error tolerance used for reliability
// computations throughout the experiments.
const DefaultEpsilon = 0.1

// BetaConfig parameterises the direct-experience estimator.
type BetaConfig struct {
	// PriorAlpha and PriorBeta form the Beta prior; both default to 1
	// (uniform: unknown peers estimate at 0.5).
	PriorAlpha, PriorBeta float64
	// Decay in (0, 1] exponentially forgets old evidence at each new
	// observation; 0 means 1 (no forgetting).
	Decay float64
	// Epsilon is the error tolerance for Confidence; 0 means DefaultEpsilon.
	Epsilon float64
	// Export tunes what ExportDelta ships and how it is encoded (selective
	// export, codec, lossy quantization). The zero value exports everything
	// pending in the dense lossless format — the PR 5 wire behaviour.
	Export ExportPolicy
}

func (c BetaConfig) withDefaults() BetaConfig {
	if c.PriorAlpha <= 0 {
		c.PriorAlpha = 1
	}
	if c.PriorBeta <= 0 {
		c.PriorBeta = 1
	}
	if c.Decay <= 0 || c.Decay > 1 {
		c.Decay = 1
	}
	if c.Epsilon <= 0 {
		c.Epsilon = DefaultEpsilon
	}
	c.Export = c.Export.withDefaults()
	return c
}

// Beta is the Bayesian direct-experience estimator: per peer a Beta
// posterior over the cooperation probability, with optional exponential
// forgetting. It is safe for concurrent use.
type Beta struct {
	cfg BetaConfig

	mu     sync.Mutex
	counts map[PeerID]*betaCounts
}

type betaCounts struct {
	coop, defect float64 // evidence beyond the prior
	// pending delta accumulator: the share of coop/defect recorded since the
	// last ExportDelta (decaying in step with the main counts, so an export
	// carries exactly the not-yet-shared mass at export time) and the number
	// of observations behind it. Remote evidence applied through ApplyDelta
	// never enters the accumulator — the transport owns propagation.
	pendCoop, pendDefect float64
	pendObs              uint64
}

// NewBeta returns a Beta estimator with the given configuration.
func NewBeta(cfg BetaConfig) *Beta {
	return &Beta{cfg: cfg.withDefaults(), counts: make(map[PeerID]*betaCounts)}
}

var _ Estimator = (*Beta)(nil)

// Record implements Estimator.
func (b *Beta) Record(peer PeerID, o Outcome) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.counts[peer]
	if c == nil {
		c = &betaCounts{}
		b.counts[peer] = c
	}
	if d := b.cfg.Decay; d < 1 {
		c.coop *= d
		c.defect *= d
		c.pendCoop *= d
		c.pendDefect *= d
	}
	if o.Cooperated {
		c.coop += o.weight()
		c.pendCoop += o.weight()
	} else {
		c.defect += o.weight()
		c.pendDefect += o.weight()
	}
	c.pendObs++
}

// ExportDelta drains the evidence recorded since the last export into a
// posterior delta whose rows carry the given observer identity: per subject
// the pending (already-decayed) cooperation/defection mass and its
// observation count. Subjects appear in sorted order — the canonical row
// order — and the drained accumulators reset, so consecutive exports
// partition the estimator's evidence stream. Returns nil when nothing is
// pending.
//
// A selective ExportPolicy (TopK, MinConfidence) drains only the qualifying
// subjects: a withheld subject's accumulator survives untouched — still
// decaying in step with the main counts — and ships in a later export once
// it qualifies. Deferred, never dropped. The policy's codec and quantization
// stamp the returned delta, so the wire encoding follows the estimator's
// configuration with no transport changes.
func (b *Beta) ExportDelta(observer PeerID) *PosteriorDelta {
	b.mu.Lock()
	defer b.mu.Unlock()
	pol := b.cfg.Export
	var subjects []PeerID
	for p, c := range b.counts {
		if c.pendObs == 0 {
			continue
		}
		if pol.MinConfidence > 0 {
			eps := pol.Epsilon
			if eps <= 0 {
				eps = b.cfg.Epsilon
			}
			if Reliability(float64(c.pendObs), eps) < pol.MinConfidence {
				continue
			}
		}
		subjects = append(subjects, p)
	}
	if pol.TopK > 0 && len(subjects) > pol.TopK {
		// Keep the K subjects with the most pending observations, ties to
		// the smaller subject ID (deterministic regardless of map order).
		sort.Slice(subjects, func(i, j int) bool {
			oi, oj := b.counts[subjects[i]].pendObs, b.counts[subjects[j]].pendObs
			if oi != oj {
				return oi > oj
			}
			return subjects[i] < subjects[j]
		})
		subjects = subjects[:pol.TopK]
	}
	if len(subjects) == 0 {
		return nil
	}
	sort.Slice(subjects, func(i, j int) bool { return subjects[i] < subjects[j] })
	rows := make([]PosteriorRow, 0, len(subjects))
	for _, p := range subjects {
		c := b.counts[p]
		rows = append(rows, PosteriorRow{
			Observer: observer,
			Subject:  p,
			Coop:     c.pendCoop,
			Defect:   c.pendDefect,
			Obs:      c.pendObs,
		})
		c.pendCoop, c.pendDefect, c.pendObs = 0, 0, 0
	}
	return &PosteriorDelta{Decay: b.cfg.Decay, Codec: pol.Codec, Quantum: pol.QuantizeBits, Rows: rows}
}

// ApplyDelta folds a peer's exported posterior delta into this estimator:
// for every row, the existing counts for the row's subject decay once per
// remote observation (exactly the decay those observations would have
// applied had they been recorded here) before the row's mass adds. Rows
// apply by Subject; the Observer tag is routing information for the caller
// (gossip.Book, mui.Network) and is not consulted here. Applied evidence
// does not re-enter the pending accumulator. The delta's decay must match
// the estimator's.
func (b *Beta) ApplyDelta(d *PosteriorDelta) error {
	if d == nil || len(d.Rows) == 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if d.Decay != b.cfg.Decay {
		return fmt.Errorf("trust: posterior delta decay %v does not match estimator decay %v", d.Decay, b.cfg.Decay)
	}
	for _, r := range d.Rows {
		c := b.counts[r.Subject]
		if c == nil {
			c = &betaCounts{}
			b.counts[r.Subject] = c
		}
		f := decayFactor(d.Decay, r.Obs)
		c.coop = c.coop*f + r.Coop
		c.defect = c.defect*f + r.Defect
	}
	return nil
}

// Estimate implements Estimator.
func (b *Beta) Estimate(peer PeerID) Estimate {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.counts[peer]
	var coop, defect float64
	if c != nil {
		coop, defect = c.coop, c.defect
	}
	alpha := b.cfg.PriorAlpha + coop
	beta := b.cfg.PriorBeta + defect
	n := coop + defect
	return Estimate{
		P:          alpha / (alpha + beta),
		Confidence: Reliability(n, b.cfg.Epsilon),
		Samples:    n,
	}
}

// Counts returns the peer's raw evidence (cooperations, defections) — used
// by the Mui witness network to share observations.
func (b *Beta) Counts(peer PeerID) (coop, defect float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if c := b.counts[peer]; c != nil {
		return c.coop, c.defect
	}
	return 0, 0
}

// Peers lists every peer with recorded evidence, sorted for determinism.
func (b *Beta) Peers() []PeerID {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]PeerID, 0, len(b.counts))
	for p := range b.counts {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Oracle is a ground-truth estimator for baseline comparisons: it answers
// with the true cooperation probabilities it was constructed with.
type Oracle struct {
	Truth map[PeerID]float64 // true cooperation probability per peer
	Prior float64            // answer for peers missing from Truth
}

var _ Estimator = (*Oracle)(nil)

// Record implements Estimator (the oracle needs no evidence).
func (o *Oracle) Record(PeerID, Outcome) {}

// Estimate implements Estimator.
func (o *Oracle) Estimate(peer PeerID) Estimate {
	if p, ok := o.Truth[peer]; ok {
		return Estimate{P: p, Confidence: 1, Samples: math.Inf(1)}
	}
	return Estimate{P: o.Prior}
}
