// Package gossip implements cross-shard evidence exchange for sharded
// experiment cells: the subsystem that tunes the *information structure* of
// a cell split across sub-engines (eval.RunCell).
//
// PR 3 left a sharded cell as isolated regional marketplaces — each
// sub-engine learns trust only from its own sessions, the extreme end of the
// information-structure spectrum the paper's reputation mechanism is
// sensitive to. Gossip interpolates: each sub-engine attaches a Node to its
// trust state, the Node buffers locally recorded evidence, and every Period
// sessions the cell's Fabric ships it between shards over a
// seed-deterministic exchange schedule. The sync period is a measurable
// staleness knob:
//
//	isolated shards  ←──  gossip(Period)  ──→  single shared engine
//	(Period = ∞)        64 … 16 … 4 … 1        (Period → 0 limit)
//
// The fabric is evidence-kind agnostic (PR 5): what moves between shards is
// a trust.EvidenceDelta — a complaint batch (complaints.Delta, applied
// through the complaints.BatchFiler fast path exactly like the write-behind
// drain of complaints.AsyncStore) or a Bayesian posterior delta
// (trust.PosteriorDelta, carried by a Book of per-observer Beta estimators).
// Deltas travel encoded, stamped with a per-origin sequence number, and
// every receiver keeps a dedup ledger keyed on (origin, seq) — exactly-once
// delivery is a property of the *receiver*, not of the schedule, which is
// what makes redundant-path topologies (TopologyDoubleRing) sound.
//
// Determinism contract: the Fabric is driven from a single coordinating
// goroutine (eval.RunCell's lockstep loop) *between* engine windows, its
// schedules derive from a seed, deltas are collected and applied in shard
// order with canonical row order — so for a fixed (seed, shard count,
// Config) the exchanged evidence is byte-identical however many sub-engines
// run concurrently.
package gossip

import (
	"fmt"
	"strconv"
	"strings"
)

// Topology selects the exchange schedule shape.
type Topology string

// The exchange topologies.
const (
	// TopologyMesh delivers every shard's batch directly to (up to Fanout
	// of) all other shards each round — one-hop propagation, the fastest
	// convergence to the shared-evidence limit.
	TopologyMesh Topology = "mesh"
	// TopologyRing forwards batches around a ring, one hop per round:
	// origin-tagged batches relay shard → shard+1 until they return to
	// their origin, so every complaint reaches every shard exactly once
	// after at most shards−1 rounds — minimal per-round traffic, maximal
	// propagation delay.
	TopologyRing Topology = "ring"
	// TopologyDoubleRing relays every envelope both clockwise and
	// counterclockwise — two redundant paths, so every shard's worst-case
	// propagation delay halves versus the ring while most shards receive
	// each envelope twice. The receiver-side dedup ledger drops the second
	// copy (Stats.DedupDropped), making this the redundancy-tolerance proof
	// of the evidence plane: exactly-once comes from the receiver, not from
	// a schedule that never duplicates.
	TopologyDoubleRing Topology = "ring2"
)

// Config parameterises a cell's gossip. The zero value disables gossip
// (isolated shards, exactly the PR 3 information structure).
type Config struct {
	// Period is the number of sessions each sub-engine runs between sync
	// points; 0 disables gossip (the "period = ∞" end of the spectrum).
	Period int
	// Topology selects the exchange schedule; empty means TopologyMesh.
	Topology Topology
	// Fanout caps how many peers each shard's batch is delivered to per
	// round under TopologyMesh (a seed-deterministic rotating subset);
	// 0 means all peers. This is deliberate *partial propagation*: the
	// peers a round's schedule skips never receive that round's batch
	// (sampled second-hand monitoring, an intermediate information
	// structure) — the permanently undelivered volume is
	// Stats.ComplaintsUnscheduled. Ignored by the ring topologies, whose
	// fan-out is fixed by construction and whose relays deliver to everyone.
	Fanout int
}

// Enabled reports whether the config turns gossip on.
func (c Config) Enabled() bool { return c.Period > 0 }

// topology resolves the default.
func (c Config) topology() Topology {
	if c.Topology == "" {
		return TopologyMesh
	}
	return c.Topology
}

// Validate rejects malformed configs; the zero value (gossip off) is valid.
func (c Config) Validate() error {
	if c.Period < 0 {
		return fmt.Errorf("gossip: period must be non-negative, have %d", c.Period)
	}
	if c.Fanout < 0 {
		return fmt.Errorf("gossip: fanout must be non-negative, have %d", c.Fanout)
	}
	switch c.topology() {
	case TopologyMesh, TopologyRing, TopologyDoubleRing:
		return nil
	default:
		return fmt.Errorf("gossip: unknown topology %q (have %s, %s, %s)", c.Topology, TopologyMesh, TopologyRing, TopologyDoubleRing)
	}
}

// String renders the config for table titles and logs: "off", or e.g.
// "every 16 sessions over mesh", "every 4 sessions over mesh fanout 2",
// "every 8 sessions over ring".
func (c Config) String() string {
	if !c.Enabled() {
		return "off"
	}
	s := fmt.Sprintf("every %d sessions over %s", c.Period, c.topology())
	if c.topology() == TopologyMesh && c.Fanout > 0 {
		s += fmt.Sprintf(" fanout %d", c.Fanout)
	}
	return s
}

// ParseSpec parses the -gossip flag syntax: "" or "off" disable gossip;
// otherwise "PERIOD[:TOPOLOGY[:FANOUT]]", e.g. "16", "16:ring", "4:mesh:2".
func ParseSpec(spec string) (Config, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" {
		return Config{}, nil
	}
	parts := strings.Split(spec, ":")
	if len(parts) > 3 {
		return Config{}, fmt.Errorf("gossip: spec %q, want PERIOD[:TOPOLOGY[:FANOUT]]", spec)
	}
	var cfg Config
	period, err := strconv.Atoi(parts[0])
	if err != nil || period < 0 {
		return Config{}, fmt.Errorf("gossip: spec %q: bad period %q", spec, parts[0])
	}
	cfg.Period = period
	if len(parts) > 1 {
		cfg.Topology = Topology(parts[1])
	}
	if len(parts) > 2 {
		fanout, err := strconv.Atoi(parts[2])
		if err != nil || fanout < 0 {
			return Config{}, fmt.Errorf("gossip: spec %q: bad fanout %q", spec, parts[2])
		}
		cfg.Fanout = fanout
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Stats is a snapshot of a Fabric's exchange accounting, the gossip section
// of the bench JSON.
type Stats struct {
	// Rounds counts Exchange calls (including the final flush round).
	Rounds int64
	// BatchesDelivered counts applied (envelope, destination shard)
	// deliveries — duplicates a redundant path re-delivered are not
	// included (see DedupDropped).
	BatchesDelivered int64
	// ComplaintsDelivered counts evidence items applied to remote shards —
	// complaints for the complaint kind, posterior rows for the posterior
	// kind; one exported item delivered to k peers counts k times. (The
	// name predates the generalised evidence plane and is kept for
	// snapshot-to-snapshot comparability.)
	ComplaintsDelivered int64
	// ComplaintsUnscheduled counts (item, peer) deliveries a fanout-limited
	// mesh schedule skipped — evidence those peers will never receive.
	// Always 0 for the full mesh and the rings.
	ComplaintsUnscheduled int64
	// BytesDelivered is the encoded payload traffic of the applied
	// deliveries (trust.EvidenceDelta.Encode; for complaint deltas over the
	// short peer IDs the experiments use this is len(From) + len(About) + 2
	// per complaint, the estimate older snapshots recorded).
	BytesDelivered int64
	// DedupDropped counts deliveries the receiver-side (origin, seq) ledger
	// dropped as duplicates. Always 0 for mesh and ring, whose schedules
	// never duplicate; on the double ring it measures the redundancy the
	// second path carries.
	DedupDropped int64
	// ApplyNs is the wall-clock time spent decoding and applying remote
	// envelopes to the shards' trust state (for complaint deltas, the
	// complaints.FileAll fast path).
	ApplyNs int64
	// Reads counts trust reads served by the fabric's nodes; StaleReads is
	// the subset served while evidence scheduled for the reading shard had
	// not yet been delivered to it — the gossip analogue of
	// complaints.AsyncStats.StaleReads. With concurrent sub-engines the
	// split is scheduling-dependent (the totals are not), so it belongs in
	// bench snapshots, not experiment tables.
	Reads, StaleReads int64
}
