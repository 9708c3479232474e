package eval

import (
	"fmt"
	"strings"

	"trustcoop/internal/market"
	"trustcoop/internal/trust"
	"trustcoop/internal/trust/gossip"
)

// DefaultCellShards is the fixed sub-engine count every sharded marketplace
// experiment cell (E2, E3, E6, E11–E13) decomposes into. Four keeps the
// per-shard learning horizon long enough for trust to form while giving the
// scheduler four independent engines to spread across cores.
const DefaultCellShards = 4

// RunCell executes one experiment cell — a marketplace described by cfg —
// sharded across `shards` sub-engines, running at most `engines` of them
// concurrently, and merges their results in shard order. It also returns
// the cell's gossip accounting: the zero gossip.Stats when the cell ran
// without gossip (shards <= 1 or cfg.Gossip.Period == 0), the exchange
// fabric's snapshot otherwise.
//
// The decomposition is part of the experiment definition: cfg.Sessions is
// partitioned into `shards` contiguous chunks, and sub-engine k runs its
// chunk as an independent marketplace seeded with DeriveSeed(cfg.Seed, k)
// (its own pairing stream, its own estimators, its own reputation store).
// With trust learned online that changes the information structure — each
// shard learns only from its own sessions, like a regional marketplace that
// never gossips — so experiments that shard their cells say so in their
// table titles, exactly as the ROADMAP caveat demands for Concurrency and
// async evidence.
//
// `engines` is pure parallelism: the sub-engines are independent and their
// results reduce in shard order, so for a fixed (cfg, shards) the merged
// Result — and any table rendered from it — is byte-identical for every
// engines value. That is the knob RunConfig.EnginesPerCell (cmd/evalrun
// -engines) turns, and the determinism harness enforces the invariant for
// engines ∈ {1, 2, 4} across E1–E13 — with and without gossip.
//
// shards <= 1 runs the cell on a single engine, exactly as an unsharded
// experiment would. engines <= 0 means min(DefaultWorkers(), shards).
// cfg.Agents is shared by the sub-engines and must not be mutated during the
// run (agents are read-only to the engine; behaviours and policies are
// stateless).
func RunCell(cfg market.Config, shards, engines int) (market.Result, gossip.Stats, error) {
	if shards <= 1 {
		if cfg.Gossip.Enabled() {
			// Silently dropping the config would leave a table whose title
			// claims gossip ran; mislabeling the information structure is
			// exactly what the caveat machinery exists to prevent.
			return market.Result{}, gossip.Stats{}, fmt.Errorf("eval: gossip (%s) configured on an unsharded cell — there are no peer shards to exchange with", cfg.Gossip)
		}
		eng, err := market.NewEngine(cfg)
		if err != nil {
			return market.Result{}, gossip.Stats{}, err
		}
		res, err := eng.Run()
		return res, gossip.Stats{}, err
	}
	if cfg.Sessions < shards {
		return market.Result{}, gossip.Stats{}, fmt.Errorf("eval: cell has %d sessions, cannot shard across %d engines", cfg.Sessions, shards)
	}
	if engines <= 0 {
		engines = min(DefaultWorkers(), shards)
	} else if engines > shards {
		// An explicit request for more parallelism than the decomposition
		// offers gets everything the cell supports.
		engines = shards
	}
	base, rem := cfg.Sessions/shards, cfg.Sessions%shards
	subConfig := func(k int) market.Config {
		sub := cfg
		sub.Seed = DeriveSeed(cfg.Seed, k)
		sub.Sessions = base
		if k < rem {
			sub.Sessions++
		}
		if sub.RepStoreConfig.Seed != 0 {
			// Decorrelate explicitly-seeded backends across shards too.
			sub.RepStoreConfig.Seed = DeriveSeed(sub.RepStoreConfig.Seed, k)
		}
		return sub
	}
	if cfg.Gossip.Enabled() {
		return runCellGossip(cfg, shards, engines, subConfig)
	}
	results, err := RunTrials(engines, shards, func(k int) (market.Result, error) {
		eng, err := market.NewEngine(subConfig(k))
		if err != nil {
			return market.Result{}, err
		}
		return eng.Run()
	})
	if err != nil {
		return market.Result{}, gossip.Stats{}, err
	}
	var merged market.Result
	for _, res := range results {
		merged.Merge(res)
	}
	return merged, gossip.Stats{}, nil
}

// runCellGossip executes a sharded cell with cross-shard evidence gossip:
// the sub-engines run in lockstep windows of cfg.Gossip.Period sessions, and
// between windows the cell's exchange fabric ships the complaints each shard
// filed to its peers — over a schedule seeded with DeriveSeed(cfg.Seed,
// shards), so the gossip stream is decorrelated from every sub-engine's
// session streams (which use indices 0..shards-1).
//
// The lockstep structure is what preserves the EnginesPerCell invariant
// under gossip: each window's work depends only on the state before the
// window (engines never interact mid-window), RunTrials reduces
// deterministically for any worker count, and the exchange itself runs on
// the coordinating goroutine in shard order — so the merged Result is
// byte-identical however many engines run concurrently. A final
// Fabric.Drain after the last window delivers any evidence still in flight
// (ring relays) before the shards settle, so post-run assessment sees
// everything the schedule delivers — under a fanout-limited mesh that is
// deliberately less than everything filed (gossip.Stats.ComplaintsUnscheduled
// counts the difference).
func runCellGossip(cfg market.Config, shards, engines int, subConfig func(int) market.Config) (market.Result, gossip.Stats, error) {
	if cfg.RepStore == "" && cfg.Evidence != trust.EvidencePosterior {
		return market.Result{}, gossip.Stats{}, fmt.Errorf("eval: gossip (%s) needs an evidence plane to exchange — a RepStore complaint backend or Evidence = posterior", cfg.Gossip)
	}
	fabric, err := gossip.NewFabric(cfg.Gossip, DeriveSeed(cfg.Seed, shards), shards)
	if err != nil {
		return market.Result{}, gossip.Stats{}, err
	}
	subs := make([]*market.Engine, shards)
	remaining := make([]int, shards)
	for k := range subs {
		sub := subConfig(k)
		sub.GossipNode = fabric.Node(k)
		eng, err := market.NewEngine(sub)
		if err != nil {
			return market.Result{}, gossip.Stats{}, err
		}
		subs[k] = eng
		remaining[k] = sub.Sessions
	}
	window := make([]int, shards)
	for {
		ran := false
		for k, rem := range remaining {
			window[k] = min(cfg.Gossip.Period, rem)
			if window[k] > 0 {
				ran = true
			}
		}
		if !ran {
			break
		}
		if _, err := RunTrials(engines, shards, func(k int) (struct{}, error) {
			if window[k] == 0 {
				return struct{}{}, nil
			}
			return struct{}{}, subs[k].RunWindow(window[k])
		}); err != nil {
			return market.Result{}, gossip.Stats{}, err
		}
		for k := range remaining {
			remaining[k] -= window[k]
		}
		if err := fabric.Exchange(); err != nil {
			return market.Result{}, gossip.Stats{}, err
		}
	}
	if err := fabric.Drain(); err != nil {
		return market.Result{}, gossip.Stats{}, err
	}
	results, err := RunTrials(engines, shards, func(k int) (market.Result, error) {
		return subs[k].FinishRun()
	})
	if err != nil {
		return market.Result{}, gossip.Stats{}, err
	}
	var merged market.Result
	for _, res := range results {
		merged.Merge(res)
	}
	return merged, fabric.Stats(), nil
}

// cellCaveats collects the information-structure changes a cell runs under,
// per the ROADMAP caveat that every one of them must be visible in the table
// itself: the fixed shard decomposition, cross-shard gossip with the
// evidence kind it moves, and a non-default posterior export policy.
// annotate composes whichever apply into one title suffix, so combined
// caveats read as one parenthetical instead of nested or duplicated ones.
type cellCaveats struct {
	// Shards is the cell decomposition; <= 1 adds nothing.
	Shards int
	// Gossip is the cell's evidence exchange; the zero value adds nothing.
	Gossip gossip.Config
	// Evidence is the kind the exchange moves; "" and complaints both read
	// "complaint gossip" (the historical spelling), posterior reads
	// "posterior gossip" — the kind changes what second-hand evidence means,
	// so it is part of the caveat.
	Evidence trust.EvidenceKind
	// Export is the posterior rows' export policy; non-zero policies change
	// what the wire carries (codec, lossy quantization, selective export),
	// so they are part of the caveat. The zero value — the PR 5
	// export-everything dense wire — adds nothing, keeping default titles
	// byte-identical.
	Export trust.ExportPolicy
}

// annotate appends the applicable caveats to a table title.
func (c cellCaveats) annotate(title string) string {
	var parts []string
	if c.Shards > 1 {
		parts = append(parts, fmt.Sprintf("cells sharded ×%d: trust learned per shard", c.Shards))
	}
	if c.Gossip.Enabled() {
		kind := "complaint"
		if c.Evidence == trust.EvidencePosterior {
			kind = "posterior"
		}
		parts = append(parts, fmt.Sprintf("%s gossip %s", kind, c.Gossip))
	}
	if c.Export != (trust.ExportPolicy{}) {
		parts = append(parts, fmt.Sprintf("posterior export %s", c.Export))
	}
	if len(parts) == 0 {
		return title
	}
	return fmt.Sprintf("%s (%s)", title, strings.Join(parts, "; "))
}

// CellSpec is the sharded-marketplace cell spec E2, E3 and E6 share: the
// pools that run their cells and the evidence exchange between a cell's
// DefaultCellShards sub-engines. Gossip, Evidence and Export are part of the
// experiment definition (they change the information structure) and show in
// the table title; Workers and EnginesPerCell are pure parallelism.
type CellSpec struct {
	// Workers is the trial worker pool; 0 means DefaultWorkers().
	Workers int
	// EnginesPerCell bounds how many sub-engines of one cell run at once.
	EnginesPerCell int
	// Gossip enables cross-shard evidence gossip between a cell's
	// sub-engines. While it is off the cells keep their private Beta
	// estimators, the pre-gossip behaviour, and Evidence and Export are
	// ignored.
	Gossip gossip.Config
	// Evidence selects the kind the gossiping cells exchange: complaints
	// (the default; the shared complaint model over the sharded backend) or
	// posterior (per-agent Beta estimators whose posterior deltas gossip).
	Evidence trust.EvidenceKind
	// Export is the posterior gossip export policy (codec, quantization,
	// selective export); the zero value is the PR 5 dense wire. Ignored
	// unless the cells gossip posterior evidence.
	Export trust.ExportPolicy
}

// resolved settles the evidence plane: no kind and no export policy while
// gossip is off, complaints by default while it is on, and an export policy
// only for posterior evidence (market.Config rejects it anywhere else).
func (s CellSpec) resolved() CellSpec {
	if !s.Gossip.Enabled() {
		s.Evidence, s.Export = "", trust.ExportPolicy{}
		return s
	}
	if s.Evidence == "" {
		s.Evidence = trust.EvidenceComplaints
	}
	if s.Evidence != trust.EvidencePosterior {
		s.Export = trust.ExportPolicy{}
	}
	return s
}

// repStore is the complaint backend of a resolved spec's cells: "sharded"
// for gossiping complaint cells, none otherwise (the posterior lives in
// per-agent estimators, not a complaint store).
func (s CellSpec) repStore() string {
	if s.Evidence == trust.EvidenceComplaints {
		return "sharded"
	}
	return ""
}

// annotate appends a resolved spec's caveats to a table title.
func (s CellSpec) annotate(title string) string {
	return cellCaveats{Shards: DefaultCellShards, Gossip: s.Gossip, Evidence: s.Evidence, Export: s.Export}.annotate(title)
}

// runCell runs one marketplace under a resolved spec: cfg sharded across
// DefaultCellShards sub-engines with the spec's evidence plane wired in.
func (s CellSpec) runCell(cfg market.Config) (market.Result, error) {
	cfg.RepStore = s.repStore()
	cfg.Evidence = s.Evidence
	cfg.Beta = trust.BetaConfig{Export: s.Export}
	cfg.Gossip = s.Gossip
	res, _, err := RunCell(cfg, DefaultCellShards, s.EnginesPerCell)
	return res, err
}
