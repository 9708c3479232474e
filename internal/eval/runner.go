package eval

import (
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"trustcoop/internal/seedmix"
	"trustcoop/internal/trust"
	"trustcoop/internal/trust/gossip"
)

// RunConfig parameterises one experiment regeneration.
type RunConfig struct {
	// Seed drives all experiment randomness.
	Seed int64
	// Quick shrinks trial counts for smoke tests and benchmarks.
	Quick bool
	// Workers bounds the worker pool used for independent trials; 0 means
	// DefaultWorkers(). Tables are identical for every worker count: each
	// trial draws from its own seed-derived random stream and results reduce
	// in trial order.
	Workers int
	// EnginesPerCell bounds how many of a sharded cell's sub-engines run
	// concurrently (see RunCell); 0 means min(DefaultWorkers(), shard count).
	// Like Workers it is pure parallelism: the cell decomposition is fixed by
	// the experiment config, so tables are identical for every value.
	EnginesPerCell int
	// RepStore restricts the reputation-backend experiments (E10) to a
	// comma-separated list of complaint-store specs (e.g.
	// "sharded,async:sharded"); empty runs the default portfolio.
	RepStore string
	// Gossip enables cross-shard evidence gossip on the sharded-cell
	// experiments (E2, E3, E6), spec "PERIOD[:TOPOLOGY[:FANOUT]]" (e.g.
	// "16", "16:ring", "4:mesh:2"); for E11 and E12 only the topology and
	// fanout apply (the period is the sweep axis), E13 takes the period as
	// its fixed schedule. Gossip is part of the experiment definition —
	// enabling it changes the information structure and the affected table
	// titles say so. Empty (or "off") keeps shards isolated.
	Gossip string
	// Evidence selects the evidence kind gossiping cells exchange, spec
	// "KIND[+OPTION...]" (trust.ParseEvidenceSpec): "complaints" (the
	// default) runs the shared complaint model, over the sharded backend in
	// every gossiping cell (RepStore reaches only E10); "posterior" runs
	// per-agent Beta estimators whose Beta-posterior deltas gossip instead
	// (E2, E3, E6 under Gossip); for E12 it restricts the kind sweep to one
	// kind. Posterior options select the export policy —
	// "posterior+columnar", "posterior+q6", "posterior+top4",
	// "posterior+conf0.7+eps0.5" — the bandwidth/accuracy knobs E13 sweeps
	// (an explicit policy replaces E13's sweep). Like Gossip it is part of
	// the experiment definition and shows in the affected titles.
	Evidence string
	// ExchangeLatency adds wall-clock exchange-latency percentile columns
	// to E11's and E12's tables. Off by default: the timings are
	// nondeterministic, so the column would break the byte-identical-table
	// contract the golden suite pins.
	ExchangeLatency bool
}

// gossipCfg parses the Gossip spec; the zero Config when unset.
func (rc RunConfig) gossipCfg() (gossip.Config, error) {
	return gossip.ParseSpec(rc.Gossip)
}

// evidenceKind resolves the Evidence spec into a kind and a posterior export
// policy; "" and the zero policy (complaints by default for the
// gossip-enabled cells, the full sweep for E12) when unset.
func (rc RunConfig) evidenceKind() (trust.EvidenceKind, trust.ExportPolicy, error) {
	if rc.Evidence == "" {
		return "", trust.ExportPolicy{}, nil
	}
	return trust.ParseEvidenceSpec(rc.Evidence)
}

// repStores splits the RepStore list; nil when unset.
func (rc RunConfig) repStores() []string {
	if rc.RepStore == "" {
		return nil
	}
	var out []string
	for _, s := range strings.Split(rc.RepStore, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

func (rc RunConfig) workers() int {
	if rc.Workers <= 0 {
		return DefaultWorkers()
	}
	return rc.Workers
}

// DefaultWorkers is the worker-pool width used when a config leaves Workers
// at zero: the process's GOMAXPROCS, i.e. "as parallel as the hardware
// allows".
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// DeriveSeed mixes a base seed with a trial index through the repository's
// shared SplitMix64 rule (internal/seedmix, also used by the market engine's
// per-session streams), decorrelating the per-trial streams even for
// adjacent indices so shard boundaries never shift results.
func DeriveSeed(base int64, idx int) int64 {
	return seedmix.Derive(base, uint64(idx))
}

// shardRng returns the random stream of trial idx under base.
func shardRng(base int64, idx int) *rand.Rand {
	return seedmix.NewRand(DeriveSeed(base, idx))
}

// RunTrials executes fn(0), …, fn(n−1) on a pool of at most workers
// goroutines and returns the results indexed by trial. Each trial must be
// self-contained (derive its randomness from its index, e.g. via DeriveSeed);
// then the returned slice — and any reduction over it in index order — is
// byte-identical for every worker count. The first error cancels the
// remaining trials and is returned.
func RunTrials[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		firstIdx = n // lowest failing trial index observed
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || stop.Load() {
					return
				}
				v, err := fn(i)
				if err != nil {
					// Stop the pool first: a worker that waits on the mutex
					// would let the others keep drawing trials meanwhile.
					stop.Store(true)
					// Keep the lowest-index error so the surfaced diagnostic
					// does not depend on goroutine scheduling. (Which trials
					// got to run before the stop still may, but the winner
					// among observed failures is deterministic per run shape.)
					mu.Lock()
					if i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if stop.Load() {
		return nil, firstErr
	}
	return out, nil
}
