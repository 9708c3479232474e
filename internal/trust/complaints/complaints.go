// Package complaints implements the practical P2P trust model of Aberer and
// Despotovic (CIKM 2001) — reference [2] of the paper. Agents that are
// cheated file complaints; the global complaint pattern identifies cheaters:
// an honest population files complaints only about cheaters, so a peer with
// both many complaints *received* and many complaints *filed* (cheaters
// retaliate with fake complaints to muddy the waters) stands out by the
// product cr(q)·cf(q).
//
// The model is storage-agnostic: Store abstracts where complaints live. The
// in-memory store here is the centralised baseline; internal/pgrid provides
// the decentralised P-Grid-backed store with replica voting, which is the
// deployment the original paper targets.
package complaints

import (
	"sort"
	"sync"

	"trustcoop/internal/trust"
)

// Complaint states that From was cheated by About in some interaction.
type Complaint struct {
	From  trust.PeerID
	About trust.PeerID
}

// Store is where complaints are filed and counted. Implementations may be
// centralised (MemoryStore, ShardedStore), decentralised
// (pgrid.ComplaintStore — counts can then be distorted by malicious storage
// peers), or decorators over another Store (AsyncStore).
type Store interface {
	// File records a complaint.
	File(c Complaint) error
	// Received returns how many complaints exist about the peer.
	Received(p trust.PeerID) (int, error)
	// Filed returns how many complaints the peer has filed.
	Filed(p trust.PeerID) (int, error)
}

// Counter is an optional Store extension that returns both complaint counts
// of a peer in one call. The assessor always needs the pair (its product
// cr·cf drives every decision), so stores that can serve it with a single
// lookup halve the cost of the read-dominated assessment path.
type Counter interface {
	// Counts returns how many complaints exist about the peer and how many
	// the peer has filed.
	Counts(p trust.PeerID) (received, filed int, err error)
}

// BatchFiler is an optional Store extension for amortised writes: FileBatch
// records every complaint of the batch with (for locked stores) one lock
// pass per shard per batch instead of per complaint. Implementations must
// attempt every complaint even after a failure and return the first error —
// the same never-silently-drop contract File has. FileAll routes through it
// when available.
type BatchFiler interface {
	FileBatch(batch []Complaint) error
}

// Tally holds both complaint counters of one peer, the unit of the
// Snapshotter bulk read.
type Tally struct {
	Received, Filed int
}

// Snapshotter is an optional Store extension for bulk reads: CountsAll
// returns the tallies of every listed peer, taking each shard lock once per
// scan instead of once per peer. The assessor's AverageProduct scan path —
// executed when a store serves no O(1) aggregate — is the consumer.
// CountsAll routes through it when available.
type Snapshotter interface {
	// CountsAll returns one Tally per peer, indexed like peers.
	CountsAll(peers []trust.PeerID) ([]Tally, error)
}

// FileAll records a batch of complaints through the store's BatchFiler when
// it has one, falling back to one File call per complaint (attempting every
// complaint and keeping the first error, matching the BatchFiler contract).
func FileAll(s Store, batch []Complaint) error {
	if len(batch) == 0 {
		return nil
	}
	if bf, ok := s.(BatchFiler); ok {
		return bf.FileBatch(batch)
	}
	var firstErr error
	for _, c := range batch {
		if err := s.File(c); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// CountsAll reads the tallies of every listed peer, through Snapshotter when
// the store provides the bulk scan and per-peer otherwise.
func CountsAll(s Store, peers []trust.PeerID) ([]Tally, error) {
	if len(peers) == 0 {
		return nil, nil
	}
	if sn, ok := s.(Snapshotter); ok {
		return sn.CountsAll(peers)
	}
	out := make([]Tally, len(peers))
	for i, p := range peers {
		cr, cf, err := counts(s, p)
		if err != nil {
			return nil, err
		}
		out[i] = Tally{Received: cr, Filed: cf}
	}
	return out, nil
}

// Flusher is an optional Store extension for write-behind stores: Flush
// blocks until every complaint filed so far has been applied to the
// underlying storage and reports the first storage error. Read-through
// stores do not implement it; callers should type-assert.
type Flusher interface {
	Flush() error
}

// Aggregator is an optional Store extension that makes the assessor's
// population average O(1): the store maintains the running complaint-product
// aggregate incrementally, inside the same critical sections that mutate the
// counts, so a trust decision no longer pays a population-wide scan.
//
// The aggregate is reported as excess = Σ over every tracked peer of
// (smoothedProduct(received, filed) − 1) — an exact integer, because each
// product is a product of two small integers. A peer with no complaints
// contributes product 1 and excess 0, so the population average over n peers
// is exactly (n + excess)/n whenever every tracked peer belongs to the
// population. Both the scan's per-peer products and their float64 sum are
// exact integers far below 2^53 (counts are bounded by complaints filed,
// products by counts², and the repo's largest runs stay under ~4·10^14), so
// the aggregate path reproduces the scanned average bit for bit — the
// equivalence the registry property test pins.
//
// tracked counts peers with at least one nonzero counter; the assessor uses
// it as a safety net (tracked > the population's size proves a complaint
// mentions an outsider, so the aggregate would over-count and the scan is
// used instead). ok=false means the store cannot serve the aggregate (a
// decorator over a non-aggregating inner store); the caller falls back as if
// the extension were absent.
type Aggregator interface {
	ProductAggregate() (excess int64, tracked int, ok bool, err error)
}

// MutationCounter is an optional Store extension for backends that cannot
// maintain the incremental aggregate (the routed P-Grid store): Mutations
// reports a counter that advances whenever the counts a read could observe
// change. The assessor's write-generation snapshot cache reuses a scanned
// average until the generation moves, which collapses read-heavy phases
// (many decisions between writes) to one scan per generation. ok=false means
// the store has no counter (the caller scans every time).
type MutationCounter interface {
	Mutations() (gen uint64, ok bool)
}

// ReadAccounter is an optional Store extension for decorators that keep
// staleness accounting on their read path (AsyncStore, gossip nodes): when
// the assessor serves a population average from the O(1) aggregate or the
// generation cache instead of a CountsAll scan, it reports the reads the
// scan would have performed through NoteScanReads, so stale-read fractions
// stay bit-identical to the scanning implementation. Decorators must
// propagate the call to an accounting inner store.
type ReadAccounter interface {
	NoteScanReads(peers int)
}

// counts reads both complaint counts, through Counter when the store
// provides the combined lookup.
func counts(s Store, p trust.PeerID) (received, filed int, err error) {
	if c, ok := s.(Counter); ok {
		return c.Counts(p)
	}
	received, err = s.Received(p)
	if err != nil {
		return 0, 0, err
	}
	filed, err = s.Filed(p)
	if err != nil {
		return 0, 0, err
	}
	return received, filed, nil
}

// MemoryStore is the centralised in-memory Store. It is safe for concurrent
// use.
type MemoryStore struct {
	mu       sync.Mutex
	received map[trust.PeerID]int
	filed    map[trust.PeerID]int
	// excess and tracked are the Aggregator state, maintained under mu by the
	// same bumps that mutate the maps (see fileLocked).
	excess  int64
	tracked int
}

// NewMemoryStore returns an empty store.
func NewMemoryStore() *MemoryStore {
	return &MemoryStore{received: make(map[trust.PeerID]int), filed: make(map[trust.PeerID]int)}
}

var (
	_ Store       = (*MemoryStore)(nil)
	_ BatchFiler  = (*MemoryStore)(nil)
	_ Snapshotter = (*MemoryStore)(nil)
	_ Aggregator  = (*MemoryStore)(nil)
)

// fileLocked lands one complaint under mu, keeping the product aggregate in
// step: a received bump moves the peer's product from (r+1)(f+1) to
// (r+2)(f+1), so excess grows by exactly f+1 read at bump time (and
// symmetrically r+1 for a filed bump). The deltas telescope, so any
// interleaving of bumps leaves excess equal to Σ(product−1) exactly.
func (s *MemoryStore) fileLocked(c Complaint) {
	r, f := s.received[c.About], s.filed[c.About]
	if r == 0 && f == 0 {
		s.tracked++
	}
	s.received[c.About] = r + 1
	s.excess += int64(f) + 1
	// Re-read From's counters: for a self-complaint they just changed.
	r, f = s.received[c.From], s.filed[c.From]
	if r == 0 && f == 0 {
		s.tracked++
	}
	s.filed[c.From] = f + 1
	s.excess += int64(r) + 1
}

// File implements Store.
func (s *MemoryStore) File(c Complaint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fileLocked(c)
	return nil
}

// FileBatch implements BatchFiler: the whole batch lands under one lock
// acquisition instead of one per complaint.
func (s *MemoryStore) FileBatch(batch []Complaint) error {
	if len(batch) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range batch {
		s.fileLocked(c)
	}
	return nil
}

// ProductAggregate implements Aggregator: the running excess maintained by
// fileLocked, served with one lock acquisition however large the population.
func (s *MemoryStore) ProductAggregate() (excess int64, tracked int, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.excess, s.tracked, true, nil
}

// CountsAll implements Snapshotter: one lock acquisition for the whole scan.
func (s *MemoryStore) CountsAll(peers []trust.PeerID) ([]Tally, error) {
	out := make([]Tally, len(peers))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, p := range peers {
		out[i] = Tally{Received: s.received[p], Filed: s.filed[p]}
	}
	return out, nil
}

// Received implements Store.
func (s *MemoryStore) Received(p trust.PeerID) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.received[p], nil
}

// Filed implements Store.
func (s *MemoryStore) Filed(p trust.PeerID) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.filed[p], nil
}

// Assessor turns complaint counts into trust decisions following the
// original decision rule: peer q is considered dishonest when its complaint
// product cr(q)·cf(q) exceeds Factor times the population average.
//
// The population average is served in O(1) whenever the store implements
// Aggregator. Assessors built with NewAssessor or NewAssessorView
// additionally arm a write-generation snapshot cache for stores that only
// implement MutationCounter (the routed P-Grid store); a literal
// Assessor{...} keeps the cache off and scans, which matters for stores
// whose reads consume randomness (replica-voting reads on a grid with
// malicious peers), where skipping scans would shift the read schedule.
type Assessor struct {
	// Store holds the complaint data.
	Store Store
	// Factor is the decision threshold multiplier; 0 means DefaultFactor.
	Factor float64
	// Population lists the peers over which averages are computed. For the
	// O(1) aggregate to be used, the population must cover every peer that
	// appears in a complaint — true for the engine and every experiment,
	// and guarded at read time via the aggregate's tracked count.
	// An assessor built with NewAssessorView ignores it.
	Population []trust.PeerID

	// shared is the state every copy of an assessor built with NewAssessor
	// or NewAssessorView shares; nil for a literal, which disables the cache.
	shared *shared
}

// shared holds an assessor's write-generation snapshot cache and, for a
// view, its population.
type shared struct {
	cache avgCache

	// A view's population is n peers, listed by list at most once, into
	// ids, on the first scan; list is nil for NewAssessor's.
	n    int
	list func() []trust.PeerID
	once sync.Once
	ids  []trust.PeerID
}

// avgCache memoises one scanned population average keyed by the store's
// mutation generation. Mutex-guarded so concurrent readers sharing an
// assessor stay race-free; the engine's single-threaded loop never contends.
type avgCache struct {
	mu    sync.Mutex
	gen   uint64
	avg   float64
	valid bool
}

// NewAssessor returns an assessor over store and population with the
// write-generation snapshot cache armed. Estimators built from the returned
// value (it is copied freely) share one cache.
func NewAssessor(store Store, population []trust.PeerID) Assessor {
	return Assessor{Store: store, Population: population, shared: &shared{}}
}

// NewAssessorView is NewAssessor over a population of n peers that list
// returns, in order, when asked. The assessor calls list at most once, on
// the first population scan, and keeps the result in the state its copies
// share; while the store's aggregate serves every average, it never calls
// list at all. list must return n IDs.
func NewAssessorView(store Store, n int, list func() []trust.PeerID) Assessor {
	return Assessor{Store: store, shared: &shared{n: n, list: list}}
}

// population returns the number of peers the average runs over and, if
// listed is set, their IDs; a view lists them on the first call that asks,
// and reads them only after once, which orders the read after the write.
func (a Assessor) population(listed bool) (int, []trust.PeerID) {
	v := a.shared
	if v == nil || v.list == nil {
		return len(a.Population), a.Population
	}
	if !listed {
		return v.n, nil
	}
	v.once.Do(func() { v.ids = v.list() })
	return v.n, v.ids
}

// DefaultFactor is the decision threshold used by the original evaluation.
const DefaultFactor = 4

func (a Assessor) factor() float64 {
	if a.Factor <= 0 {
		return DefaultFactor
	}
	return a.Factor
}

// smoothedProduct is the complaint product cr·cf with add-one smoothing, so
// that a peer with complaints received but none filed still scores. The one
// definition serves both the per-peer read and the population scan.
func smoothedProduct(received, filed int) float64 {
	return float64(received+1) * float64(filed+1)
}

// Product returns the peer's smoothed complaint product cr(q)·cf(q).
func (a Assessor) Product(q trust.PeerID) (float64, error) {
	cr, cf, err := counts(a.Store, q)
	if err != nil {
		return 0, err
	}
	return smoothedProduct(cr, cf), nil
}

// AverageProduct is the population mean of the complaint product — the
// normaliser of every trust decision. Three paths, in preference order:
//
//  1. Aggregator: the store's incrementally maintained excess gives the
//     average as (n + excess)/n in O(1). Exact-integer arithmetic makes it
//     bit-identical to the scan (see Aggregator). If the aggregate tracks
//     more peers than the population holds, a complaint mentions an
//     outsider and the scan is used instead.
//  2. MutationCounter + cache (NewAssessor and NewAssessorView only): the
//     scanned average is reused until the store's mutation generation
//     moves — one scan per write burst instead of one per decision.
//  3. CountsAll scan: a Snapshotter store serves it with one lock pass per
//     shard instead of one locked lookup per population member.
//
// Paths 1 and 2 report the reads the scan would have performed through
// ReadAccounter, so a write-behind or gossip store's stale-read accounting
// is identical whichever path serves the average.
func (a Assessor) AverageProduct() (float64, error) {
	n, _ := a.population(false)
	if n == 0 {
		return 1, nil
	}
	if agg, isAgg := a.Store.(Aggregator); isAgg {
		excess, tracked, ok, err := agg.ProductAggregate()
		switch {
		case err != nil:
			return 0, err
		case ok && tracked <= n:
			a.noteScanReads(n)
			return float64(int64(n)+excess) / float64(n), nil
		case ok:
			// Complaints mention peers outside the population; the aggregate
			// would over-count them, so fall back to the exact scan.
			return a.scanAverage()
		}
		// ok=false: a decorator over a non-aggregating inner store — try the
		// generation cache next, exactly as if Aggregator were absent.
	}
	if a.shared != nil {
		if mc, isMC := a.Store.(MutationCounter); isMC {
			if gen, ok := mc.Mutations(); ok {
				c := &a.shared.cache
				c.mu.Lock()
				if c.valid && c.gen == gen {
					avg := c.avg
					c.mu.Unlock()
					a.noteScanReads(n)
					return avg, nil
				}
				c.mu.Unlock()
				// gen was read before the scan, so a write racing the scan
				// at worst invalidates a fresh entry — never the reverse.
				avg, err := a.scanAverage()
				if err != nil {
					return 0, err
				}
				c.mu.Lock()
				c.gen, c.avg, c.valid = gen, avg, true
				c.mu.Unlock()
				return avg, nil
			}
		}
	}
	return a.scanAverage()
}

// scanAverage is the full CountsAll scan — the O(N) baseline the aggregate
// and the generation cache must reproduce bit for bit.
func (a Assessor) scanAverage() (float64, error) {
	n, ids := a.population(true)
	tallies, err := CountsAll(a.Store, ids)
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, ty := range tallies {
		sum += smoothedProduct(ty.Received, ty.Filed)
	}
	return sum / float64(n), nil
}

// noteScanReads reports the read of all n peers the assessor just served
// without a scan, keeping decorator staleness accounting scan-identical.
func (a Assessor) noteScanReads(n int) {
	if ra, ok := a.Store.(ReadAccounter); ok {
		ra.NoteScanReads(n)
	}
}

// NormalisedScore is the peer's complaint product relative to the
// population average: ~1 for an ordinary peer, large for cheaters.
func (a Assessor) NormalisedScore(q trust.PeerID) (float64, error) {
	avg, err := a.AverageProduct()
	if err != nil {
		return 0, err
	}
	prod, err := a.Product(q)
	if err != nil {
		return 0, err
	}
	if avg <= 0 {
		return prod, nil
	}
	return prod / avg, nil
}

// Trustworthy applies the decision rule: score ≤ Factor.
func (a Assessor) Trustworthy(q trust.PeerID) (bool, error) {
	s, err := a.NormalisedScore(q)
	if err != nil {
		return false, err
	}
	return s <= a.factor(), nil
}

// Probability bridges the binary decision rule to the probabilistic
// interface the decision module needs (our addition, documented in
// DESIGN.md): p = Factor/(Factor + score), which maps an average peer
// (score 1) to Factor/(Factor+1), the decision threshold (score = Factor)
// to 0.5, and heavy complainers towards 0.
func (a Assessor) Probability(q trust.PeerID) (float64, error) {
	s, err := a.NormalisedScore(q)
	if err != nil {
		return 0, err
	}
	f := a.factor()
	return f / (f + s), nil
}

// Estimator adapts the assessor to trust.Estimator. Recording a defection
// files a complaint by the observer; cooperations are not stored (the model
// only tracks negative feedback).
type Estimator struct {
	Assessor Assessor
	Observer trust.PeerID
}

var (
	_ trust.Estimator        = (*Estimator)(nil)
	_ trust.FallibleRecorder = (*Estimator)(nil)
)

// TryRecord implements trust.FallibleRecorder: defections become complaints,
// and a failing store (decentralised routing breakage, a write-behind
// pipeline error) is reported to the caller instead of dropped.
func (e *Estimator) TryRecord(peer trust.PeerID, o trust.Outcome) error {
	if o.Cooperated {
		return nil
	}
	return e.Assessor.Store.File(Complaint{From: e.Observer, About: peer})
}

// Record implements trust.Estimator: defections become complaints. Callers
// that must not lose complaints use TryRecord; here the assessment degrades
// gracefully, so the error is intentionally dropped.
func (e *Estimator) Record(peer trust.PeerID, o trust.Outcome) {
	_ = e.TryRecord(peer, o)
}

// Estimate implements trust.Estimator.
func (e *Estimator) Estimate(peer trust.PeerID) trust.Estimate {
	p, err := e.Assessor.Probability(peer)
	if err != nil {
		return trust.Estimate{P: 0.5}
	}
	cr, cf, _ := counts(e.Assessor.Store, peer)
	n := float64(cr + cf)
	return trust.Estimate{P: p, Confidence: trust.Reliability(n, trust.DefaultEpsilon), Samples: n}
}

// SortByScore orders peers from most to least suspicious; ties break by ID.
// Used by the adversarial-witness experiment to rank detected cheaters.
func (a Assessor) SortByScore(peers []trust.PeerID) ([]trust.PeerID, error) {
	type scored struct {
		id    trust.PeerID
		score float64
	}
	out := make([]scored, 0, len(peers))
	for _, p := range peers {
		s, err := a.NormalisedScore(p)
		if err != nil {
			return nil, err
		}
		out = append(out, scored{p, s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].score != out[j].score {
			return out[i].score > out[j].score
		}
		return out[i].id < out[j].id
	})
	ids := make([]trust.PeerID, len(out))
	for i, s := range out {
		ids[i] = s.id
	}
	return ids, nil
}
