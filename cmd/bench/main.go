// Command bench records the repository's performance trajectory as a JSON
// snapshot (BENCH_PR<n>.json by convention) so successive changes can be
// compared. It runs a registry of sections, each timing one layer that
// neither `go test -bench` nor perfbench (the repository benchmark) covers:
//
//   - stores: complaint-store backends under concurrent File and mixed
//     file+assess load
//   - cells: one experiment cell split across sub-engines at growing pool
//     widths, plus the FileBatch-vs-File write path
//   - gossip: one sharded cell at falling cross-shard sync periods
//   - evidence: the evidence plane per kind (codec, merge, cell traffic,
//     redundant-path dedup)
//   - codec: the posterior export policies against the dense wire
//   - assessor: one trust decision by population scan and by the O(1)
//     aggregate
//   - scale: one engine at 10⁴–10⁶ agents (only when asked for)
//
// The report's notes field documents every section's columns.
//
// Usage:
//
//	bench [-o bench.json] [-seed 42] [-quick] [-reps 3] [-sections stores,codec] [-scale]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"trustcoop/internal/agent"
	"trustcoop/internal/benchutil"
	"trustcoop/internal/eval"
	"trustcoop/internal/market"
	"trustcoop/internal/stats"
	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
	"trustcoop/internal/trust/gossip"
)

type storeRun struct {
	Goroutines       int     `json:"goroutines"`
	Ops              int     `json:"ops"`
	NsPerOp          float64 `json:"ns_per_op"`
	AllocsPerOp      float64 `json:"allocs_per_op"`
	MutexWaitNsPerOp float64 `json:"mutex_wait_ns_per_op"`
}

type storeReport struct {
	Backend    string     `json:"backend"`
	Workload   string     `json:"workload"` // "file" or "file+assess"
	Gomaxprocs int        `json:"gomaxprocs"`
	Runs       []storeRun `json:"runs"`
	// SpeedupNumCPUVs1 is ns/op at 1 goroutine over ns/op at the widest
	// goroutine count — 1.0 by definition on single-CPU hosts, the
	// contention-scaling trend line elsewhere.
	SpeedupNumCPUVs1 float64 `json:"speedup_numcpu_vs_1"`
	// SpeedupVsMemory compares this backend's widest-run ns/op against the
	// memory baseline's on the same workload.
	SpeedupVsMemory float64 `json:"speedup_vs_memory"`
	// Latency is the per-operation distribution from a separate instrumented
	// pass at the widest goroutine count (per-goroutine distributions merged
	// in goroutine order — deterministic by Distribution.Merge's contract).
	Latency latencyDist `json:"latency,omitzero"`
}

type cellEngineRun struct {
	Engines int     `json:"engines"`
	Seconds float64 `json:"seconds"`
}

type cellReport struct {
	Shards   int             `json:"shards"`
	Sessions int             `json:"sessions"`
	Runs     []cellEngineRun `json:"runs"`
	// SpeedupVs1Engine is 1-engine wall clock over the widest engine pool's —
	// 1.0 by definition on single-CPU hosts, the per-cell multi-core scaling
	// trend line elsewhere.
	SpeedupVs1Engine float64 `json:"speedup_vs_1_engine"`
}

type batchFileRun struct {
	Backend       string  `json:"backend"`
	BatchSize     int     `json:"batch_size"`
	SingleNsPerOp float64 `json:"single_file_ns_per_op"`
	BatchNsPerOp  float64 `json:"filebatch_ns_per_op"`
	// SpeedupBatchVsSingle is single-File ns/op over FileBatch ns/op on the
	// same workload: the lock-amortisation win of one lock pass per shard
	// per batch.
	SpeedupBatchVsSingle float64 `json:"speedup_batch_vs_single"`
}

type cellShardingReport struct {
	Cells     []cellReport   `json:"cells"`
	FileBatch []batchFileRun `json:"filebatch"`
}

type gossipRun struct {
	// Period 0 is gossip off — the isolated-shard baseline every other row
	// is compared against.
	Period  int     `json:"period"`
	Seconds float64 `json:"seconds"`
	// BytesPerSession is the exchange traffic amortised over the cell's
	// sessions (wire-size estimate of every delivered batch).
	BytesPerSession float64 `json:"bytes_per_session"`
	// ApplyNsPerComplaint is the cost of landing remote evidence: wall
	// clock inside Fabric.Exchange per delivered complaint (the
	// complaints.FileAll batched path).
	ApplyNsPerComplaint float64 `json:"apply_ns_per_complaint"`
	// StaleReadFraction is the share of trust reads served while a peer
	// shard held undelivered complaints — the staleness the period buys
	// back. Scheduling-dependent across concurrent engines (totals are
	// not), hence a bench number, not a table column.
	StaleReadFraction   float64 `json:"stale_read_fraction"`
	ComplaintsDelivered int64   `json:"complaints_delivered"`
	// ComplaintsUnscheduled is the evidence a fanout-limited mesh
	// permanently skipped (0 for the default full mesh and for ring).
	ComplaintsUnscheduled int64 `json:"complaints_unscheduled"`
	Rounds                int64 `json:"rounds"`
	// ExchangeLatency distributes the wall time of each inter-window
	// Fabric.Exchange (eval.RunCell hook), from one instrumented run
	// after the timed reps; absent for period 0 (no exchanges).
	ExchangeLatency latencyDist `json:"exchange_latency,omitzero"`
}

type gossipReport struct {
	Topology string      `json:"topology"`
	Fanout   int         `json:"fanout"`
	Shards   int         `json:"shards"`
	Sessions int         `json:"sessions"`
	Runs     []gossipRun `json:"runs"`
}

type evidenceKindRun struct {
	Kind string `json:"kind"`
	// Micro-costs of the delta codec and the associative merge, over a
	// 64-item delta of the kind's typical shape.
	EncodeNsPerDelta float64 `json:"encode_ns_per_delta"`
	DecodeNsPerDelta float64 `json:"decode_ns_per_delta"`
	MergeNsPerDelta  float64 `json:"merge_ns_per_delta"`
	DeltaBytes       int     `json:"delta_bytes"`
	// Cell-level traffic: one trust-aware cell sharded ×4 at period 4 over
	// the full mesh, the E12 shape.
	BytesPerSession float64 `json:"bytes_per_session"`
	ItemsDelivered  int64   `json:"items_delivered"`
	ApplyNsPerItem  float64 `json:"apply_ns_per_item"`
	// Redundant-path run: the same cell over the double ring, where the
	// receiver-side (origin, seq) ledger drops the second copy.
	DedupDroppedRing2 int64   `json:"dedup_dropped_ring2"`
	DedupHitRateRing2 float64 `json:"dedup_hit_rate_ring2"`
	// Per-delta codec latency distributions from separate chained-clock
	// passes over the same 64-item delta the means above time in bulk.
	EncodeLatency latencyDist `json:"encode_latency,omitzero"`
	DecodeLatency latencyDist `json:"decode_latency,omitzero"`
}

type evidencePlaneReport struct {
	Shards   int               `json:"shards"`
	Sessions int               `json:"sessions"`
	Period   int               `json:"period"`
	Kinds    []evidenceKindRun `json:"kinds"`
}

// codecModeRun is one row of the evidence_codec section: the posterior wire
// under one export policy (PR 10), micro-costed on a 64-row delta and
// traffic-costed on the PR 5 reference cell (sharded ×4, period 4, full
// mesh) so bytes_per_session is directly comparable to the committed PR 5
// evidence_plane posterior row.
type codecModeRun struct {
	Policy     string `json:"policy"`
	DeltaBytes int    `json:"delta_bytes"`
	// Encode/Decode micro-costs of the policy's wire format on the same
	// 64-row delta every mode shares (selection policies change what the
	// export drains, not the per-delta codec, so their micro rows match
	// the columnar ones by construction).
	EncodeNsPerDelta float64 `json:"encode_ns_per_delta"`
	DecodeNsPerDelta float64 `json:"decode_ns_per_delta"`
	// BytesPerSession is the cell's delivered posterior traffic amortised
	// over its sessions; CompressionRatioVsDense is the dense row's
	// bytes_per_session over this one (1.0 for dense itself, +Inf-free:
	// 0 when this mode shipped nothing).
	BytesPerSession         float64 `json:"bytes_per_session"`
	CompressionRatioVsDense float64 `json:"compression_ratio_vs_dense"`
}

type evidenceCodecReport struct {
	Shards   int            `json:"shards"`
	Sessions int            `json:"sessions"`
	Period   int            `json:"period"`
	Modes    []codecModeRun `json:"modes"`
}

// assessorPathRun is one row of the assessor_path section: ns per trust
// decision (one NormalisedScore call — population average + per-peer
// product) measured both ways on the same pre-filled store: through the
// CountsAll scan the seed implementation paid on every decision, and
// through the incrementally maintained O(1) aggregate.
type assessorPathRun struct {
	Backend    string `json:"backend"`
	Population int    `json:"population"`
	// ScanDecisions/AggregateDecisions are the timed call counts (the scan
	// path is O(population), so it times fewer calls at the big sizes).
	ScanDecisions          int     `json:"scan_decisions"`
	AggregateDecisions     int     `json:"aggregate_decisions"`
	ScanNsPerDecision      float64 `json:"scan_ns_per_decision"`
	AggregateNsPerDecision float64 `json:"aggregate_ns_per_decision"`
	// SpeedupAggregateVsScan compares the two read paths on one host —
	// an algorithmic O(N)→O(1) ratio, not a parallelism number.
	SpeedupAggregateVsScan float64 `json:"speedup_aggregate_vs_scan"`
	// Per-decision latency distributions from separate instrumented passes
	// over the same pre-filled store (chained clock reads, one per decision).
	ScanLatency      latencyDist `json:"scan_latency,omitzero"`
	AggregateLatency latencyDist `json:"aggregate_latency,omitzero"`
}

type report struct {
	Generated     string              `json:"generated"`
	GoVersion     string              `json:"go_version"`
	NumCPU        int                 `json:"num_cpu"`
	GOMAXPROCS    int                 `json:"gomaxprocs"`
	Seed          int64               `json:"seed"`
	Quick         bool                `json:"quick"`
	Reps          int                 `json:"reps"`
	Scale         []scaleRun          `json:"scale,omitempty"`
	AssessorPath  []assessorPathRun   `json:"assessor_path,omitempty"`
	Stores        []storeReport       `json:"store_contention,omitempty"`
	CellSharding  cellShardingReport  `json:"cell_sharding,omitzero"`
	Gossip        gossipReport        `json:"gossip,omitzero"`
	EvidencePlane evidencePlaneReport `json:"evidence_plane,omitzero"`
	EvidenceCodec evidenceCodecReport `json:"evidence_codec,omitzero"`
	Notes         string              `json:"notes"`
}

// scaleRun is one row of the scale section: a single marketplace engine at
// a growing population, measuring event throughput on the organic workload
// (jittered latencies spread timestamps — the shape the timer wheel exists
// for) and the per-agent memory footprint.
type scaleRun struct {
	Agents int `json:"agents"`
	// Estimator labels the trust path the engine ran (PR 7): "beta-private"
	// is per-agent Beta estimators with population-independent decisions
	// (the PR 6 baseline), "complaints-sharded" routes every decision
	// through the shared sharded complaint store's population average — the
	// read that was O(agents) before the incremental aggregate and O(1)
	// after.
	Estimator   string `json:"estimator,omitempty"`
	Sessions    int    `json:"sessions"`
	Concurrency int    `json:"concurrency"`
	// Events is the number of simulator events the run executed; Seconds is
	// the engine run's wall clock (construction excluded).
	Events       int64   `json:"events"`
	Seconds      float64 `json:"seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
	NsPerEvent   float64 `json:"ns_per_event"`
	// EngineHeapBytes is the live-heap growth from building the population
	// and engine (measured between forced GCs); BytesPerAgent amortises it.
	EngineHeapBytes uint64  `json:"engine_heap_bytes"`
	BytesPerAgent   float64 `json:"bytes_per_agent"`
	// PeakHeapBytes is HeapInuse after the run, before any GC — the
	// high-water working set the run actually touched.
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	// WindowNsPerEvent distributes per-event cost across fixed session
	// windows (Engine.RunWindow, chained clocks at the window boundaries):
	// the tail rows show throughput jitter a single whole-run mean hides.
	WindowNsPerEvent latencyDist `json:"window_ns_per_event,omitzero"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// config is what the sections read from the command line.
type config struct {
	seed       int64
	quick      bool
	reps       int
	scaleSizes []int
}

// A section is one entry of the registry: its -sections name, the prose
// that documents its report fields, and the function that fills them.
type section struct {
	name string
	doc  string
	run  func(c config, r *report) error
}

// sections is the registry. It fixes the run order, the -sections
// vocabulary and the order of the report's notes. scale runs only when
// -scale or -sections names it.
var sections = []section{
	{"stores", "store_contention compares complaint-store backends per workload: " +
		"'file+assess' is the marketplace's operation mix (1 File + a " +
		"population-wide complaint-product scan per session), where the " +
		"sharded store's single-lookup combined Counts read beats the " +
		"memory baseline's two locked map reads even on one CPU; 'file' is " +
		"the pure write path, where striping needs real CPU parallelism to " +
		"pay off — on single-CPU hosts the extra shard hash and second " +
		"lock make it slower than the uncontended single mutex, so watch " +
		"speedup_vs_memory on multi-core CI artifacts for that row", benchStores},
	{"cells", "cell_sharding times one trust-aware experiment cell decomposed into " +
		"a fixed number of sub-engines (eval.RunCell) at engine-pool widths " +
		"1/2/4/GOMAXPROCS — the decomposition never changes with the width, " +
		"so speedup_vs_1_engine is pure parallelism (1.0 by definition on " +
		"single-CPU hosts); its filebatch rows compare per-complaint File " +
		"against FileBatch chunks of batch_size on the same stream, the " +
		"locking the batch API amortises (one lock pass per shard per batch; " +
		"the pgrid row amortises routing instead — one routed walk per " +
		"distinct grid key per batch, on a tenth of the stream); " +
		"the filebatch pgrid-deferred row runs " +
		"DeferReplication (store-and-forward replica broadcast) on the " +
		"pgrid stream, and pgrid-deferred32 the same on a 32-peer grid " +
		"(depth 4, below the adaptive grouping threshold: FileBatch files " +
		"per complaint there, so its speedup_batch_vs_single is ~1.0 by " +
		"design — the grouped map would cost more than the shallow walks " +
		"it saves)", benchCells},
	{"gossip", "gossip times one trust-aware cell sharded x4 (eval.RunCell) at " +
		"cross-shard sync periods {inf,64,16,4,1}: bytes_per_session is the " +
		"delivered exchange traffic amortised over the cell's sessions, " +
		"apply_ns_per_complaint the cost of landing remote batches through " +
		"the complaints.FileAll fast path, and stale_read_fraction the share " +
		"of trust reads served before evidence scheduled for the reading " +
		"shard had arrived (per recipient: a ring hop that already landed " +
		"reads fresh while later hops stay stale; scheduling-dependent " +
		"across concurrent engines, so it lives here and not in the E11 " +
		"table); complaints_unscheduled counts deliveries a fanout-limited " +
		"mesh permanently skipped (0 for full mesh and ring)", benchGossip},
	{"evidence", "evidence_plane measures the generalized evidence plane per kind: " +
		"64-item delta codec and associative-merge micro-costs, one " +
		"sharded x4 cell's delta traffic at period 4 over the full mesh, " +
		"and the same cell over the redundant double ring where " +
		"dedup_hit_rate_ring2 is the fraction of deliveries the " +
		"receiver-side (origin, seq) ledger dropped (~0.5 by construction: " +
		"two paths, one survivor)", benchEvidence},
	{"codec", "evidence_codec prices the posterior export policies " +
		"against the dense wire: per-mode encode/decode ns on one " +
		"shared 64-row delta, plus bytes_per_session from re-running the " +
		"evidence_plane reference cell (sharded x4, period 4, full mesh) under each " +
		"policy — compression_ratio_vs_dense on the lossless columnar row " +
		"is the artifact guard's >=2x floor, and the quantized/selective " +
		"rows price the bytes beyond it (selection defers evidence, never " +
		"drops it, so its savings are latency, not loss)", benchCodec},
	{"assessor", "assessor_path times one trust decision — " +
		"Assessor.NormalisedScore, the population average plus the " +
		"per-peer product — both ways on the same pre-filled store: " +
		"scan_ns_per_decision forces the seed's O(population) CountsAll " +
		"walk through a wrapper that withholds the Aggregator extension, " +
		"aggregate_ns_per_decision reads the incrementally maintained " +
		"running sum; the two paths return bit-identical scores (the " +
		"aggregate-equals-scan property test pins it), so " +
		"speedup_aggregate_vs_scan is pure algorithmic O(N) to O(1) and " +
		"grows linearly with the population", benchAssessor},
	{"scale", "scale (present when bench ran with -scale) runs one marketplace " +
		"engine at 1e4/1e5/1e6 agents with a fixed session count: " +
		"events_per_sec/ns_per_event track throughput as the population " +
		"grows (pairing, routing and estimator access are O(1) in the " +
		"population, so they should barely move), engine_heap_bytes and " +
		"bytes_per_agent are the live-heap cost of the built population " +
		"plus engine index (forced-GC delta; estimators are lazy so idle " +
		"agents stay cheap), and peak_heap_bytes is HeapInuse right after " +
		"the run, before any GC; scale rows carry an " +
		"estimator label: beta-private is the per-agent Beta " +
		"baseline with population-independent decisions, " +
		"complaints-sharded routes every decision through the shared " +
		"sharded complaint store's population average — the read that " +
		"was O(agents) per decision before the aggregate — so its " +
		"ns_per_event staying flat from 1e4 to 1e6 agents is the " +
		"tentpole's end-to-end evidence; -scale-ceiling-ns turns that " +
		"flatness into a CI guard; " +
		"scale's window_ns_per_event distributes per-event cost over " +
		"4×concurrency-session windows of the same run instead of per-op " +
		"clocks (events are too fine to time individually)", benchScale},
}

// harnessDoc documents what every section shares; it opens the notes.
const harnessDoc = "seconds are best-of-reps wall clock; " +
	"latency/…_latency objects are per-operation distributions " +
	"from separate instrumented passes over the same workloads with " +
	"chained clock reads (one time.Now per op), so the best-of-reps " +
	"mean columns stay untouched: mean/std/min/max are exact " +
	"(Welford), p50/p95/p99/p999 come from log-spaced buckets " +
	"(16 per octave) with ≤≈4.4% worst-case relative error; " +
	"committed BENCH_PR<n>.json snapshots come from whatever host state CI had, " +
	"so cross-PR comparisons should re-measure both trees on one host"

func run(args []string) error {
	names := make([]string, len(sections))
	docs := []string{harnessDoc}
	for i, s := range sections {
		names[i] = s.name
		docs = append(docs, s.doc)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	out := fs.String("o", "", "output JSON path (default stdout)")
	seed := fs.Int64("seed", 42, "random seed")
	quick := fs.Bool("quick", false, "reduced trial counts")
	reps := fs.Int("reps", 3, "timing repetitions per cell (best is kept; at least 1)")
	scale := fs.Bool("scale", false,
		"run the scale section: one marketplace engine per estimator at 1e4/1e5/1e6 agents (slow; needs ~1.5 GB at the top size)")
	scaleAgents := fs.String("scale-agents", "10000,100000,1000000",
		"comma-separated population sizes for the scale section")
	scaleCeiling := fs.Float64("scale-ceiling-ns", 0,
		"fail (exit nonzero, after writing the report) if any scale row exceeds this ns/event; 0 disables — the CI guard that trust decisions stay O(1) in the population; needs the scale section")
	only := fs.String("sections", "",
		"comma-separated subset of sections to run ("+strings.Join(names, ",")+"); empty runs them all but scale; 'scale' here implies -scale")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof; see docs/PERF.md)")
	memprofile := fs.String("memprofile", "", "write a post-GC heap profile to this file at exit (see docs/PERF.md)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A run with no reps times nothing and would report zeros as results;
	// a negative ceiling would silently disarm the scale guard.
	if *reps < 1 {
		return fmt.Errorf("-reps must be at least 1, got %d", *reps)
	}
	if *scaleCeiling < 0 {
		return fmt.Errorf("-scale-ceiling-ns must be non-negative (0 disables), got %v", *scaleCeiling)
	}
	c := config{seed: *seed, quick: *quick, reps: *reps}
	var err error
	if c.scaleSizes, err = parseSizes(*scaleAgents); err != nil {
		return fmt.Errorf("-scale-agents: %w", err)
	}
	picked := splitList(*only)
	want := map[string]bool{"scale": *scale}
	for _, name := range picked {
		if !slices.Contains(names, name) {
			return fmt.Errorf("-sections: unknown section %q (valid: %s)", name, strings.Join(names, ","))
		}
		want[name] = true
	}
	// Every section but scale runs unless -sections narrows the run (the CI
	// smoke shape); scale runs only when asked for.
	runs := func(name string) bool { return want[name] || len(picked) == 0 && name != "scale" }
	if *scaleCeiling > 0 && !runs("scale") {
		return fmt.Errorf("-scale-ceiling-ns needs the scale section (-scale or -sections scale): without scale rows the guard checks nothing")
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	rep := report{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       *seed,
		Quick:      *quick,
		Reps:       *reps,
		Notes:      strings.Join(docs, "; "),
	}
	for _, s := range sections {
		if !runs(s.name) {
			continue
		}
		if err := s.run(c, &rep); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	// The ceiling guard fires after the report is assembled so CI failures
	// still ship the numbers that tripped them.
	var ceilingErr error
	for _, row := range rep.Scale {
		if *scaleCeiling > 0 && row.NsPerEvent > *scaleCeiling {
			ceilingErr = fmt.Errorf("scale ceiling exceeded: %s at %d agents ran %.0f ns/event, ceiling %.0f",
				row.Estimator, row.Agents, row.NsPerEvent, *scaleCeiling)
			break
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		runtime.GC() // profile live objects, not garbage
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "" {
		_, err = os.Stdout.Write(data)
	} else {
		err = os.WriteFile(*out, data, 0o644)
	}
	return errors.Join(err, ceilingErr)
}

// splitList splits a comma-separated flag value, dropping blank entries.
func splitList(spec string) []string {
	var out []string
	for _, s := range strings.Split(spec, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// parseSizes parses a comma-separated list of positive integers.
func parseSizes(spec string) ([]int, error) {
	var out []int
	for _, part := range splitList(spec) {
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		if n <= 0 {
			return nil, fmt.Errorf("population size must be positive, got %d", n)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no population sizes in %q", spec)
	}
	return out, nil
}

// benchCells measures one experiment cell — a
// trust-aware marketplace that previously serialised on a single engine —
// sharded across sub-engines (eval.RunCell) at growing engine-pool widths.
// The decomposition is fixed per cell (that is what keeps tables
// byte-identical across widths); only the concurrency varies, so the
// speedup-vs-1-engine column is a pure multi-core scaling number.
func benchCells(c config, r *report) error {
	sessions := cellSessions(c.quick)
	widths := widen([]int{1, 2, 4}, runtime.GOMAXPROCS(0))
	for _, shards := range []int{4, 8} {
		cfg, err := cellConfig(c.seed, sessions)
		if err != nil {
			return err
		}
		cr := cellReport{Shards: shards, Sessions: sessions}
		prev := 0
		for _, engines := range widths {
			// A width beyond the decomposition clamps to it (RunCell would
			// anyway), so the widest supported pool is always measured;
			// widths ascend, so equal clamped values dedupe via prev.
			engines = min(engines, shards)
			if engines == prev {
				continue
			}
			prev = engines
			_, best, err := bestOf(c.reps, timed(func() error {
				_, _, err := eval.RunCell(cfg, shards, engines, nil)
				return err
			}))
			if err != nil {
				return err
			}
			cr.Runs = append(cr.Runs, cellEngineRun{Engines: engines, Seconds: best.Seconds()})
		}
		cr.SpeedupVs1Engine = parallelSpeedup(cr.Runs[0].Seconds, cr.Runs[len(cr.Runs)-1].Seconds)
		r.CellSharding.Cells = append(r.CellSharding.Cells, cr)
		fmt.Fprintf(os.Stderr, "cell shards=%d: %v (%.2fx vs 1 engine)\n", shards, cr.Runs, cr.SpeedupVs1Engine)
	}
	var err error
	r.CellSharding.FileBatch, err = benchFileBatch(c)
	return err
}

// benchGossip measures cross-shard evidence gossip: the reference cell sharded ×4
// at gossip periods {∞, 64, 16, 4, 1}, recording wall clock, exchange
// traffic per session, the per-complaint cost of landing remote batches
// (the complaints.FileAll fast path), and the stale-read fraction the
// period leaves behind, over the full mesh.
func benchGossip(c config, r *report) error {
	const shards = 4
	sessions := cellSessions(c.quick)
	gr := gossipReport{Topology: string(gossip.TopologyMesh), Shards: shards, Sessions: sessions}
	for _, period := range []int{0, 64, 16, 4, 1} {
		cfg, err := cellConfig(c.seed, sessions)
		if err != nil {
			return err
		}
		cfg.RepStore = "sharded"
		cfg.Gossip = gossip.Config{Period: period, Topology: gossip.TopologyMesh}
		st, best, err := bestOf(c.reps, func() (gossip.Stats, time.Duration, error) {
			start := time.Now()
			_, st, err := eval.RunCell(cfg, shards, 0, nil)
			return st, time.Since(start), err
		})
		if err != nil {
			return err
		}
		run := gossipRun{
			Period:                period,
			Seconds:               best.Seconds(),
			BytesPerSession:       float64(st.BytesDelivered) / float64(sessions),
			ComplaintsDelivered:   st.ComplaintsDelivered,
			ComplaintsUnscheduled: st.ComplaintsUnscheduled,
			Rounds:                st.Rounds,
		}
		if st.ComplaintsDelivered > 0 {
			run.ApplyNsPerComplaint = float64(st.ApplyNs) / float64(st.ComplaintsDelivered)
		}
		if st.Reads > 0 {
			run.StaleReadFraction = float64(st.StaleReads) / float64(st.Reads)
		}
		if period > 0 {
			// Instrumented run, separate from the timed reps: the observer
			// hook distributes each inter-window exchange's wall time. Period
			// 0 has no exchanges, so it reports no distribution.
			var ex stats.Distribution
			if _, _, err := eval.RunCell(cfg, shards, 0, func(d time.Duration) {
				ex.Add(float64(d.Nanoseconds()))
			}); err != nil {
				return err
			}
			run.ExchangeLatency = distSummary(&ex)
		}
		gr.Runs = append(gr.Runs, run)
		fmt.Fprintf(os.Stderr, "gossip period=%d: %.3fs, %.1f B/session, %.0f ns/applied complaint, stale reads %.2f, exchange p50/p99 %.0f/%.0f ns\n",
			period, run.Seconds, run.BytesPerSession, run.ApplyNsPerComplaint, run.StaleReadFraction,
			run.ExchangeLatency.P50Ns, run.ExchangeLatency.P99Ns)
	}
	r.Gossip = gr
	return nil
}

// benchEvidence measures the generalized evidence plane per kind:
// the delta codec and merge micro-costs, the reference cell's delta traffic
// sharded ×4 at period 4 over the full mesh (bytes per session,
// remote-apply cost per item), and the same cell over the redundant double
// ring, where the receiver-side dedup ledger absorbs the second path
// (dedup_hit_rate_ring2 = dropped / (applied + dropped) deliveries).
func benchEvidence(c config, r *report) error {
	const shards, period = 4, 4
	sessions := cellSessions(c.quick)
	ep := evidencePlaneReport{Shards: shards, Sessions: sessions, Period: period}
	// Each kind's micro-costs run on a 64-item delta of its typical shape.
	for _, k := range []struct {
		kind  trust.EvidenceKind
		delta trust.EvidenceDelta
	}{
		{trust.EvidenceComplaints, complaints.NewDelta(complaintStream(benchutil.StorePeers(64), 64))},
		{trust.EvidencePosterior, posteriorDelta()},
	} {
		kind, delta := k.kind, k.delta
		run := evidenceKindRun{Kind: string(kind)}
		payload, encode, decode := codec(kind, delta)
		run.DeltaBytes = len(payload)
		var err error
		run.EncodeNsPerDelta, run.EncodeLatency, _ = measure(1, codecOps, encode)
		if run.DecodeNsPerDelta, run.DecodeLatency, err = measure(1, codecOps, decode); err != nil {
			return err
		}
		decodeMerge, err := nsPerOp(1, codecOps, func(int) error {
			a, err := trust.DecodeEvidence(kind, payload)
			if err != nil {
				return err
			}
			return a.Merge(delta)
		})
		if err != nil {
			return err
		}
		// Subtract the decode cost so the merge number is the merge alone
		// (clamped at 0 for timer noise).
		run.MergeNsPerDelta = max(decodeMerge-run.DecodeNsPerDelta, 0)

		// Cell-level traffic per topology.
		cellStats := func(topo gossip.Topology) (gossip.Stats, error) {
			cfg, err := cellConfig(c.seed, sessions)
			if err != nil {
				return gossip.Stats{}, err
			}
			cfg.Gossip = gossip.Config{Period: period, Topology: topo}
			if kind == trust.EvidencePosterior {
				cfg.Evidence = kind
			} else {
				cfg.RepStore = "sharded"
			}
			_, st, err := eval.RunCell(cfg, shards, 0, nil)
			return st, err
		}
		mesh, err := cellStats(gossip.TopologyMesh)
		if err != nil {
			return err
		}
		run.BytesPerSession = float64(mesh.BytesDelivered) / float64(sessions)
		run.ItemsDelivered = mesh.ComplaintsDelivered
		if mesh.ComplaintsDelivered > 0 {
			run.ApplyNsPerItem = float64(mesh.ApplyNs) / float64(mesh.ComplaintsDelivered)
		}
		ring2, err := cellStats(gossip.TopologyDoubleRing)
		if err != nil {
			return err
		}
		run.DedupDroppedRing2 = ring2.DedupDropped
		if total := ring2.BatchesDelivered + ring2.DedupDropped; total > 0 {
			run.DedupHitRateRing2 = float64(ring2.DedupDropped) / float64(total)
		}
		ep.Kinds = append(ep.Kinds, run)
		fmt.Fprintf(os.Stderr, "evidence %s: %dB/delta, encode %.0f decode %.0f merge %.0f ns, %.1f B/session, dedup hit rate %.2f\n",
			kind, run.DeltaBytes, run.EncodeNsPerDelta, run.DecodeNsPerDelta, run.MergeNsPerDelta,
			run.BytesPerSession, run.DedupHitRateRing2)
	}
	r.EvidencePlane = ep
	return nil
}

// benchCodec prices the posterior export policies against the dense wire.
// Micro rows time each policy's codec on the shared 64-row delta; cell rows
// re-run the evidence_plane reference cell (trust-aware, sharded ×4, gossip
// period 4 over the full mesh) once per policy, so bytes_per_session and
// compression_ratio_vs_dense measure exactly what the policy saved on the
// same evidence stream. The columnar row is lossless — its ratio is the
// artifact guard's ≥2× floor; the quantized and selective rows trade
// accuracy or latency for the bytes beyond that.
// Always the full 1600-session reference shape, even under -quick: the
// posterior cell is cheap (~1 s for all four modes), and matching the
// committed BENCH_PR5.json evidence_plane shape exactly is what makes the
// dense row a cross-PR baseline rather than a new number.
func benchCodec(c config, r *report) error {
	const shards, period = 4, 4
	sessions := cellSessions(false)
	ec := evidenceCodecReport{Shards: shards, Sessions: sessions, Period: period}
	for _, spec := range []string{
		"posterior",
		"posterior+columnar",
		"posterior+q6",
		"posterior+columnar+conf0.7+eps0.5",
	} {
		_, pol, err := trust.ParseEvidenceSpec(spec)
		if err != nil {
			return err
		}
		run := codecModeRun{Policy: pol.String()}

		// The shared delta, re-stamped with the policy's codec and quantum.
		delta := posteriorDelta()
		delta.Codec = pol.Codec
		if pol.QuantizeBits > 0 {
			delta.Codec = trust.PosteriorColumnar
			delta.Quantum = pol.QuantizeBits
		}
		payload, encode, decode := codec(trust.EvidencePosterior, delta)
		run.DeltaBytes = len(payload)
		run.EncodeNsPerDelta, _ = nsPerOp(1, codecOps, encode)
		if run.DecodeNsPerDelta, err = nsPerOp(1, codecOps, decode); err != nil {
			return err
		}

		// Cell traffic under the policy, same marketplace stream per mode.
		cfg, err := cellConfig(c.seed, sessions)
		if err != nil {
			return err
		}
		cfg.Evidence = trust.EvidencePosterior
		cfg.Beta = trust.BetaConfig{Export: pol}
		cfg.Gossip = gossip.Config{Period: period, Topology: gossip.TopologyMesh}
		_, st, err := eval.RunCell(cfg, shards, 0, nil)
		if err != nil {
			return err
		}
		run.BytesPerSession = float64(st.BytesDelivered) / float64(sessions)
		ec.Modes = append(ec.Modes, run)
		fmt.Fprintf(os.Stderr, "codec %s: %dB/delta, encode %.0f decode %.0f ns, %.1f B/session\n",
			run.Policy, run.DeltaBytes, run.EncodeNsPerDelta, run.DecodeNsPerDelta, run.BytesPerSession)
	}
	dense := ec.Modes[0].BytesPerSession
	for i := range ec.Modes {
		if b := ec.Modes[i].BytesPerSession; b > 0 {
			ec.Modes[i].CompressionRatioVsDense = dense / b
		}
	}
	r.EvidenceCodec = ec
	return nil
}

// benchScale runs one marketplace engine per estimator at growing
// populations — the million-agent scale path the timer wheel (PR 6) exists
// for. The session count is fixed, so the rows isolate how population size
// alone moves event throughput and what each agent costs in resident memory
// (population + engine index; estimators are lazy, so mostly-idle agents
// stay cheap). The beta-private rows should barely move with population
// (pairing, routing and estimator access are all O(1) in it); since PR 7 the
// complaints-sharded rows — where every trust decision reads the population
// average off the shared complaint store — should match that flatness too,
// because the average comes from the incrementally maintained aggregate
// instead of the former O(agents) scan.
func benchScale(c config, r *report) error {
	const sessions = 20_000
	const concurrency = 256
	variants := []struct{ estimator, repStore string }{{"beta-private", ""}, {"complaints-sharded", "sharded"}}
	for _, agents := range c.scaleSizes {
		for _, v := range variants {
			before := settledHeap()

			pop, err := agent.NewPopulation(agent.PopConfig{
				Honest:      agents - agents/5,
				Opportunist: agents / 5,
			}, rand.New(rand.NewSource(c.seed)))
			if err != nil {
				return err
			}
			eng, err := market.NewEngine(market.Config{
				Seed:        c.seed,
				Sessions:    sessions,
				Agents:      pop,
				Concurrency: concurrency,
				Strategy:    market.StrategyTrustAware,
				RepStore:    v.repStore,
			})
			if err != nil {
				return err
			}
			// Clamp against residual GC drift: the delta is a measurement,
			// not an invariant, and an underflowed uint64 would poison the
			// bytes_per_agent column.
			engineHeap := max(settledHeap(), before) - before

			// The run is windowed (RunWindow + FinishRun ≡ Run for the same
			// session total) so each window's ns/event lands in a
			// distribution: the mean column says what the run cost, the
			// percentile columns say how unevenly — a p999 window far above
			// p50 is scheduler jitter or GC, not the steady-state event cost.
			window := 4 * concurrency
			var windowDist stats.Distribution
			start := time.Now()
			last := start
			var prevEvents int64
			for done := 0; done < sessions; done += window {
				if err := eng.RunWindow(min(window, sessions-done)); err != nil {
					return err
				}
				now := time.Now()
				windowNs := float64(now.Sub(last).Nanoseconds())
				last = now
				ev := eng.EventsExecuted()
				if d := ev - prevEvents; d > 0 {
					windowDist.Add(windowNs / float64(d))
				}
				prevEvents = ev
			}
			if _, err := eng.FinishRun(); err != nil {
				return err
			}
			secs := time.Since(start).Seconds()
			var after runtime.MemStats // deliberately before any GC: high-water
			runtime.ReadMemStats(&after)

			events := eng.EventsExecuted()
			row := scaleRun{
				Agents:          agents,
				Estimator:       v.estimator,
				Sessions:        sessions,
				Concurrency:     concurrency,
				Events:          events,
				Seconds:         secs,
				EngineHeapBytes: engineHeap,
				PeakHeapBytes:   after.HeapInuse,
			}
			row.BytesPerAgent = float64(row.EngineHeapBytes) / float64(agents)
			if events > 0 {
				row.EventsPerSec = float64(events) / secs
				row.NsPerEvent = secs * 1e9 / float64(events)
			}
			row.WindowNsPerEvent = distSummary(&windowDist)
			r.Scale = append(r.Scale, row)
			fmt.Fprintf(os.Stderr, "scale %d agents (%s): %d events in %.2fs (%.0f events/s, %.1f ns/event), %.1f bytes/agent, peak heap %d MB\n",
				agents, v.estimator, events, secs, row.EventsPerSec, row.NsPerEvent, row.BytesPerAgent, after.HeapInuse>>20)
		}
	}
	return nil
}

// settledHeap is HeapAlloc after two collections: sync.Pool victims (the
// netsim cross-run pools released by the previous row) survive one GC by
// design, and a baseline taken while they are still live would undercount —
// or even underflow — the next row's heap delta.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// scanOnlyStore hides the Aggregator and MutationCounter extensions of the
// wrapped store while keeping its bulk CountsAll read, so an assessor over
// it is forced down the pre-PR-7 path: one population scan per decision,
// through the same Snapshotter fast path the seed used. This is the honest
// baseline for the assessor_path comparison — same store, same data, same
// scan machinery, only the aggregate withheld.
type scanOnlyStore struct{ inner complaints.Store }

func (s scanOnlyStore) File(c complaints.Complaint) error    { return s.inner.File(c) }
func (s scanOnlyStore) Received(p trust.PeerID) (int, error) { return s.inner.Received(p) }
func (s scanOnlyStore) Filed(p trust.PeerID) (int, error)    { return s.inner.Filed(p) }
func (s scanOnlyStore) Counts(p trust.PeerID) (int, int, error) {
	if c, ok := s.inner.(complaints.Counter); ok {
		return c.Counts(p)
	}
	r, err := s.inner.Received(p)
	if err != nil {
		return 0, 0, err
	}
	f, err := s.inner.Filed(p)
	return r, f, err
}
func (s scanOnlyStore) CountsAll(peers []trust.PeerID) ([]complaints.Tally, error) {
	return s.inner.(complaints.Snapshotter).CountsAll(peers)
}

// benchAssessor measures one trust decision
// (Assessor.NormalisedScore — population average plus the per-peer product)
// timed both ways on the same pre-filled store. The scan rows force the
// seed's O(population) CountsAll walk through scanOnlyStore; the aggregate
// rows read the incrementally maintained sum. Both return bit-identical
// scores (pinned by the aggregate≡scan property test), so the ratio is pure
// algorithmic O(N)→O(1) and grows linearly with the population.
func benchAssessor(c config, r *report) error {
	populations := []int{1_000, 10_000, 100_000}
	if c.quick {
		populations = []int{1_000, 10_000}
	}
	for _, backend := range []string{"memory", "sharded"} {
		for _, pop := range populations {
			row, err := assessorRow(c, backend, pop)
			if err != nil {
				return err
			}
			r.AssessorPath = append(r.AssessorPath, row)
			fmt.Fprintf(os.Stderr, "assessor %s pop=%d: scan %.0f ns/decision, aggregate %.0f ns/decision (%.1fx)\n",
				backend, pop, row.ScanNsPerDecision, row.AggregateNsPerDecision, row.SpeedupAggregateVsScan)
		}
	}
	return nil
}

func assessorRow(c config, backend string, pop int) (row assessorPathRun, err error) {
	ids := benchutil.StorePeers(pop)
	store, err := complaints.Open(backend, complaints.BackendConfig{})
	if err != nil {
		return row, err
	}
	// Pre-file two complaints per peer on average so both paths read a
	// store with realistic occupancy.
	if err := complaints.FileAll(store, complaintStream(ids, 2*pop)); err != nil {
		return row, err
	}

	// The scan is O(population) per call, so it times fewer calls at the
	// big sizes to keep the section bounded.
	row = assessorPathRun{Backend: backend, Population: pop, AggregateDecisions: 50_000, ScanDecisions: 4_000_000 / pop}
	if c.quick {
		row.AggregateDecisions /= 10
		row.ScanDecisions /= 4
	}
	row.ScanDecisions = max(row.ScanDecisions, 8)
	decide := func(a complaints.Assessor) func(int) error {
		return func(i int) error {
			_, err := a.NormalisedScore(ids[(i*31)%pop])
			return err
		}
	}
	scan := decide(complaints.Assessor{Store: scanOnlyStore{inner: store}, Population: ids})
	aggregate := decide(complaints.NewAssessor(store, ids))
	if row.ScanNsPerDecision, row.ScanLatency, err = measure(c.reps, row.ScanDecisions, scan); err != nil {
		return row, err
	}
	if row.AggregateNsPerDecision, row.AggregateLatency, err = measure(c.reps, row.AggregateDecisions, aggregate); err != nil {
		return row, err
	}
	if row.AggregateNsPerDecision > 0 {
		row.SpeedupAggregateVsScan = row.ScanNsPerDecision / row.AggregateNsPerDecision
	}
	return row, nil
}

// benchFileBatch compares the batched write path against per-complaint File
// on each centralised backend plus the decentralised pgrid store (its
// FileBatch routes once per distinct grid key per batch instead of twice per
// complaint — PR 4): the same complaint stream filed one at a time versus in
// FileBatch chunks (the async drain's shape). The ratio is the per-complaint
// locking (or routing) overhead the batch API amortises away.
func benchFileBatch(c config) ([]batchFileRun, error) {
	const batchSize = 64
	ops := 200_000
	if c.quick {
		ops = 50_000
	}
	ids := benchutil.StorePeers(storePeers)
	stream := complaintStream(ids, ops)
	var out []batchFileRun
	for _, spec := range []string{"memory", "sharded", "async:sharded", "pgrid", "pgrid-deferred", "pgrid-deferred32"} {
		specOps := ops
		openSpec, bc := spec, complaints.BackendConfig{BatchSize: batchSize, Seed: 11}
		if strings.HasPrefix(spec, "pgrid") {
			// Every pgrid operation pays O(log N) routing and a replica-group
			// write, so the rows run a tenth of the stream; the deferred row
			// (PR 5) buffers the replica broadcast per key and pays it once
			// at the closing Flush. The deferred32 row shrinks the grid to 32
			// peers (depth 4, below pgrid's adaptive grouping threshold), so
			// its FileBatch files per complaint — the row pins that ungrouped
			// filing is not slower than grouping would be on a shallow grid.
			specOps = ops / 10
			openSpec = "pgrid"
			bc.DeferReplication = strings.HasPrefix(spec, "pgrid-deferred")
			if spec == "pgrid-deferred32" {
				bc.GridPeers = 32
			}
		}
		single := func(store complaints.Store) error {
			return repeat(specOps, func(i int) error { return store.File(stream[i]) })
		}
		batched := func(store complaints.Store) error {
			return repeat((specOps+batchSize-1)/batchSize, func(b int) error {
				return complaints.FileAll(store, stream[b*batchSize:min((b+1)*batchSize, specOps)])
			})
		}
		var ns [2]float64
		for i, fill := range []func(complaints.Store) error{single, batched} {
			_, best, err := bestOf(c.reps, func() (_ struct{}, d time.Duration, err error) {
				// An async store drains on the filing goroutine, so both
				// paths pay the drain inside the timed span.
				store, err := complaints.Open(openSpec, bc)
				if err != nil {
					return struct{}{}, 0, err
				}
				start := time.Now()
				if err = fill(store); err == nil {
					err = flush(store)
				}
				d = time.Since(start)
				return struct{}{}, d, err
			})
			if err != nil {
				return nil, fmt.Errorf("filebatch %s: %w", spec, err)
			}
			ns[i] = float64(best.Nanoseconds()) / float64(specOps)
		}
		run := batchFileRun{Backend: spec, BatchSize: batchSize, SingleNsPerOp: ns[0], BatchNsPerOp: ns[1]}
		if run.BatchNsPerOp > 0 {
			run.SpeedupBatchVsSingle = run.SingleNsPerOp / run.BatchNsPerOp
		}
		out = append(out, run)
		fmt.Fprintf(os.Stderr, "filebatch %s: %.1f -> %.1f ns/op (%.2fx)\n",
			spec, run.SingleNsPerOp, run.BatchNsPerOp, run.SpeedupBatchVsSingle)
	}
	return out, nil
}

// flush drains a write-behind store; other stores have nothing to drain.
func flush(store complaints.Store) error {
	if f, ok := store.(complaints.Flusher); ok {
		return f.Flush()
	}
	return nil
}

// storePeers is the contention-benchmark population size.
const storePeers = 512

func mutexWaitTotal() float64 {
	s := []metrics.Sample{{Name: "/sync/mutex/wait/total:seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64()
}

// benchStores measures each backend under two workloads:
//
//   - "file": G goroutines filing complaints as fast as they can — the pure
//     write path, where lock striping pays off with real CPU parallelism;
//   - "file+assess": each session files one complaint and then assesses the
//     whole population (one complaint-product read per peer), the operation
//     mix of the trust-aware marketplace, where the sharded store's combined
//     single-lookup Counts read wins even single-threaded.
//
// Reported per run: wall-clock ns per store operation, heap allocations per
// operation (runtime.MemStats delta — approximate, includes scheduler
// allocations), and sync.Mutex wait accumulated per operation. A separate
// instrumented pass at the widest goroutine count records the per-op
// latency distribution.
func benchStores(c config, r *report) error {
	ids := benchutil.StorePeers(storePeers)
	w := storeWork{ids: ids, fileOps: 200_000, sessions: 400}
	if c.quick {
		w.fileOps, w.sessions = 50_000, 100
	}
	widths := widen([]int{1, 8}, 2*runtime.GOMAXPROCS(0))

	// memBaseline[workload] is the memory backend's widest-run ns/op. The
	// backends are the concurrency-safe ones (pgrid is single-threaded by
	// design), memory first so every backend's speedup_vs_memory has a
	// same-snapshot denominator.
	memBaseline := map[string]float64{}
	for _, spec := range []string{"memory", "sharded", "async:sharded"} {
		for _, workload := range []string{"file", "file+assess"} {
			w.workload = workload
			sr := storeReport{Backend: spec, Workload: workload, Gomaxprocs: runtime.GOMAXPROCS(0)}
			for _, g := range widths {
				best, _, err := bestOf(c.reps, func() (storeRun, time.Duration, error) {
					return w.run(spec, g, nil)
				})
				if err != nil {
					return fmt.Errorf("%s %s: %w", spec, workload, err)
				}
				sr.Runs = append(sr.Runs, best)
			}
			last := sr.Runs[len(sr.Runs)-1]
			sr.SpeedupNumCPUVs1 = parallelSpeedup(sr.Runs[0].NsPerOp, last.NsPerOp)
			if spec == "memory" {
				memBaseline[workload] = last.NsPerOp
			}
			if base := memBaseline[workload]; base > 0 && last.NsPerOp > 0 {
				sr.SpeedupVsMemory = base / last.NsPerOp
			}
			// Per-op latency shape at the widest width, merged in goroutine
			// order (Merge is exactly associative, so the merged shape is
			// independent of scheduling).
			dists := make([]stats.Distribution, widths[len(widths)-1])
			if _, _, err := w.run(spec, len(dists), dists); err != nil {
				return fmt.Errorf("%s %s: %w", spec, workload, err)
			}
			var lat stats.Distribution
			for _, d := range dists {
				lat.Merge(d)
			}
			sr.Latency = distSummary(&lat)
			r.Stores = append(r.Stores, sr)
			fmt.Fprintf(os.Stderr, "store %s %s: %.1f ns/op at %d goroutines (%.2fx vs memory), p99 %.0f ns\n",
				spec, workload, last.NsPerOp, last.Goroutines, sr.SpeedupVsMemory, sr.Latency.P99Ns)
		}
	}
	return nil
}

// storeWork is one store_contention workload at its trial sizes.
type storeWork struct {
	workload          string         // "file" or "file+assess"
	ids               []trust.PeerID // storePeers of them
	fileOps, sessions int
}

// shape is each of goroutines' share of the workload: sessions of one File
// followed by reads complaint-product reads, one per population member
// ("file" is sessions with no reads).
func (w storeWork) shape(goroutines int) (sessions, reads int) {
	if w.workload == "file" {
		return w.fileOps / goroutines, 0
	}
	return w.sessions, len(w.ids)
}

// body is the workload: goroutine g's operation stream on store. With d set
// it is the instrumented pass and each op is lapped into d; the timed pass
// pays only the nil check.
func (w storeWork) body(store complaints.Store, g, goroutines int, d *stats.Distribution) error {
	ids := w.ids
	sessions, reads := w.shape(goroutines)
	assessor := complaints.Assessor{Store: store, Population: ids}
	last := time.Now()
	for s := range sessions {
		if err := store.File(complaints.Complaint{From: ids[(g*7+s)%len(ids)], About: ids[(g*13+3*s)%len(ids)]}); err != nil {
			return err
		}
		if d != nil {
			last = lap(d, last)
		}
		for _, p := range ids[:reads] {
			if _, err := assessor.Product(p); err != nil {
				return err
			}
			if d != nil {
				last = lap(d, last)
			}
		}
	}
	return nil
}

// run drives one (spec, goroutines) cell on a fresh store and returns its
// per-op costs and timed span. With dists set it is the instrumented pass
// instead: goroutine g observes its ops into dists[g], so no state is shared
// on the hot path beyond the store under test.
func (w storeWork) run(spec string, goroutines int, dists []stats.Distribution) (run storeRun, elapsed time.Duration, err error) {
	store, err := benchutil.OpenStore(spec, w.ids)
	if err != nil {
		return run, 0, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	wait0 := mutexWaitTotal()
	start := time.Now()
	err = drive(goroutines, func(g int) error {
		if dists == nil {
			return w.body(store, g, goroutines, nil)
		}
		return w.body(store, g, goroutines, &dists[g])
	})
	// A write-behind store pays for its backlog inside the measurement.
	if ferr := flush(store); err == nil {
		err = ferr
	}
	elapsed = time.Since(start)
	wait1 := mutexWaitTotal()
	runtime.ReadMemStats(&ms1)
	sessions, reads := w.shape(goroutines)
	ops := goroutines * sessions * (reads + 1)
	return storeRun{
		Goroutines:       goroutines,
		Ops:              ops,
		NsPerOp:          float64(elapsed.Nanoseconds()) / float64(ops),
		AllocsPerOp:      float64(ms1.Mallocs-ms0.Mallocs) / float64(ops),
		MutexWaitNsPerOp: (wait1 - wait0) * 1e9 / float64(ops),
	}, elapsed, err
}
