package trust

import (
	"fmt"
	"math"
	"sort"
)

// Test-only constructors and the posterior merge: no program builds a delta
// from loose rows or coalesces two deltas, but the codec, apply and fuzz
// tests use both to state their properties.

// NewPosteriorDelta builds a canonical delta: rows are sorted by
// (Observer, Subject), preserving the given order within equal keys, and
// duplicate keys coalesce through the merge rule (earlier row first). A
// decay outside (0, 1] is normalised to 1 (no forgetting), matching
// BetaConfig.
func NewPosteriorDelta(decay float64, rows []PosteriorRow) *PosteriorDelta {
	if decay <= 0 || decay > 1 || math.IsNaN(decay) {
		decay = 1
	}
	sorted := make([]PosteriorRow, len(rows))
	copy(sorted, rows)
	sort.SliceStable(sorted, func(i, j int) bool { return lessKey(sorted[i].key(), sorted[j].key()) })
	out := sorted[:0]
	for _, r := range sorted {
		if n := len(out); n > 0 && out[n-1].key() == r.key() {
			out[n-1] = coalesceRows(out[n-1], r, decay)
			continue
		}
		out = append(out, r)
	}
	return &PosteriorDelta{Decay: decay, Rows: out}
}

// coalesceRows folds a later row into an earlier one of the same key:
// applying (a then b) must equal applying the coalesced row, so a's mass
// decays by b's observations before b's mass adds — the rule that makes
// Merge associative.
func coalesceRows(a, b PosteriorRow, decay float64) PosteriorRow {
	f := decayFactor(decay, b.Obs)
	return PosteriorRow{
		Observer: a.Observer,
		Subject:  a.Subject,
		Coop:     a.Coop*f + b.Coop,
		Defect:   a.Defect*f + b.Defect,
		Obs:      a.Obs + b.Obs,
	}
}

// Merge folds other, the later delta, into d: matching keys
// coalesce with decay compensation, so merged-then-applied equals
// applied-then-applied. The receiver's Codec and Quantum win — what a hop
// re-encodes is its own policy, and keeping the left operand's fields is
// what makes mixed-codec merges associative.
func (d *PosteriorDelta) Merge(other EvidenceDelta) error {
	o, ok := other.(*PosteriorDelta)
	if !ok {
		return fmt.Errorf("trust: cannot merge %s delta into posterior delta", other.Kind())
	}
	if o.Decay != d.Decay {
		return fmt.Errorf("trust: posterior delta decay mismatch: %v vs %v", d.Decay, o.Decay)
	}
	if len(o.Rows) == 0 {
		return nil
	}
	merged := make([]PosteriorRow, 0, len(d.Rows)+len(o.Rows))
	i, j := 0, 0
	for i < len(d.Rows) && j < len(o.Rows) {
		a, b := d.Rows[i], o.Rows[j]
		switch {
		case a.key() == b.key():
			merged = append(merged, coalesceRows(a, b, d.Decay))
			i++
			j++
		case lessKey(a.key(), b.key()):
			merged = append(merged, a)
			i++
		default:
			merged = append(merged, b)
			j++
		}
	}
	merged = append(merged, d.Rows[i:]...)
	merged = append(merged, o.Rows[j:]...)
	d.Rows = merged
	return nil
}
