package complaints

import (
	"errors"
	"sync"
	"sync/atomic"

	"trustcoop/internal/trust"
)

// DefaultBatchSize is the complaint batch that triggers a flush to the inner
// store when AsyncConfig leaves BatchSize at zero.
const DefaultBatchSize = 16

// ErrClosed is returned by File on a closed AsyncStore.
var ErrClosed = errors.New("complaints: async store closed")

// AsyncConfig parameterises the write-behind decorator.
type AsyncConfig struct {
	// BatchSize is the number of queued complaints that triggers a flush to
	// the inner store; 0 means DefaultBatchSize.
	BatchSize int
}

// AsyncStats is a snapshot of the pipeline's accounting.
type AsyncStats struct {
	// Enqueued and Applied count complaints accepted by File and complaints
	// already applied to the inner store; their difference is the current
	// staleness backlog.
	Enqueued, Applied int64
	// Batches counts flushes to the inner store.
	Batches int64
	// Reads counts Received/Filed/Counts calls; StaleReads is the subset
	// served while at least one complaint was still pending.
	Reads, StaleReads int64
}

// AsyncStore is a write-behind decorator over any inner Store: File
// buffers, and the buffer is applied to the inner store synchronously, on
// the filing goroutine, whenever a full batch has accumulated (or on Flush).
// Reads pass straight through to the inner store, so they see counts that
// lag filing by up to a batch: exactly the staler-evidence information
// structure a real deployment with an asynchronous reputation pipeline has,
// yet a File/read sequence is fully reproducible. The store is safe for
// concurrent use when the inner store is: reads run concurrently with a
// drain.
type AsyncStore struct {
	inner Store
	batch int

	mu      sync.Mutex
	pending []Complaint
	err     error // first inner-store failure, sticky
	closed  bool

	// Accounting is atomic so the read path (noteRead) never touches mu —
	// otherwise every Received/Filed/Counts would serialise on this one
	// store-wide mutex and defeat a lock-striped inner store.
	enqueued, applied atomic.Int64
	batches           atomic.Int64
	reads, staleReads atomic.Int64
}

var (
	_ Store           = (*AsyncStore)(nil)
	_ Counter         = (*AsyncStore)(nil)
	_ Flusher         = (*AsyncStore)(nil)
	_ BatchFiler      = (*AsyncStore)(nil)
	_ Snapshotter     = (*AsyncStore)(nil)
	_ Aggregator      = (*AsyncStore)(nil)
	_ MutationCounter = (*AsyncStore)(nil)
	_ ReadAccounter   = (*AsyncStore)(nil)
)

// NewAsyncStore wraps inner per cfg.
func NewAsyncStore(inner Store, cfg AsyncConfig) *AsyncStore {
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	return &AsyncStore{inner: inner, batch: batch}
}

// File implements Store: the complaint is buffered, not yet visible to
// reads. The returned error is a sticky earlier failure of the inner store,
// or of the batch application this File triggered — complaints are never
// silently dropped.
func (s *AsyncStore) File(c Complaint) error {
	return s.FileBatch([]Complaint{c})
}

// FileBatch implements BatchFiler: the whole batch is buffered under one
// mutex acquisition, and it drains to the inner store through the inner's
// own FileBatch — so a batch travels the entire write-behind pipeline with
// per-batch, not per-complaint, locking. The returned error follows the
// File contract.
func (s *AsyncStore) FileBatch(batch []Complaint) error {
	if len(batch) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.pending = append(s.pending, batch...)
	s.enqueued.Add(int64(len(batch)))
	if len(s.pending) >= s.batch {
		return s.applyPendingLocked()
	}
	return s.err
}

// applyPendingLocked applies the buffer to the inner store in filing order,
// as one batch (FileAll uses the inner store's BatchFiler when it has one,
// so a lock-striped inner store is locked once per shard per drain). Every
// buffered complaint is attempted even after a failure; the first error is
// kept sticky.
func (s *AsyncStore) applyPendingLocked() error {
	if len(s.pending) == 0 {
		return s.err
	}
	if err := FileAll(s.inner, s.pending); err != nil && s.err == nil {
		s.err = err
	}
	s.applied.Add(int64(len(s.pending)))
	s.batches.Add(1)
	s.pending = s.pending[:0]
	return s.err
}

// noteRead updates the staleness accounting for one read, without touching
// the store mutex (see the field comment).
func (s *AsyncStore) noteRead() { s.noteReads(1) }

// noteReads accounts for n reads sharing one staleness observation (a bulk
// CountsAll scan counts like n individual reads, so stale-read fractions
// stay comparable whichever read path the assessor takes).
func (s *AsyncStore) noteReads(n int) {
	s.reads.Add(int64(n))
	if s.applied.Load() != s.enqueued.Load() {
		s.staleReads.Add(int64(n))
	}
}

// Received implements Store, reading through to the inner store (stale by
// up to the current backlog).
func (s *AsyncStore) Received(p trust.PeerID) (int, error) {
	s.noteRead()
	return s.inner.Received(p)
}

// Filed implements Store, reading through to the inner store.
func (s *AsyncStore) Filed(p trust.PeerID) (int, error) {
	s.noteRead()
	return s.inner.Filed(p)
}

// Counts implements Counter, delegating to the inner store's combined read
// when it has one.
func (s *AsyncStore) Counts(p trust.PeerID) (received, filed int, err error) {
	s.noteRead()
	return counts(s.inner, p)
}

// CountsAll implements Snapshotter, delegating to the inner store's bulk
// scan when it has one. Like every read it sees counts that lag filing by
// the current backlog; the whole scan shares one staleness observation.
func (s *AsyncStore) CountsAll(peers []trust.PeerID) ([]Tally, error) {
	s.noteReads(len(peers))
	return CountsAll(s.inner, peers)
}

// ProductAggregate implements Aggregator by delegating to the inner store:
// the inner aggregate reflects exactly the complaints already applied —
// precisely what a CountsAll scan through this store would sum — so the
// write-behind staleness semantics are unchanged by the O(1) path. ok=false
// when the inner store keeps no aggregate.
func (s *AsyncStore) ProductAggregate() (excess int64, tracked int, ok bool, err error) {
	if agg, isAgg := s.inner.(Aggregator); isAgg {
		return agg.ProductAggregate()
	}
	return 0, 0, false, nil
}

// Mutations implements MutationCounter by delegating to the inner store: the
// generation advances when applied complaints become visible to reads, which
// is exactly when a cached scanned average goes stale.
func (s *AsyncStore) Mutations() (gen uint64, ok bool) {
	if mc, isMC := s.inner.(MutationCounter); isMC {
		return mc.Mutations()
	}
	return 0, false
}

// NoteScanReads implements ReadAccounter: an averaged read served without a
// scan still counts as the population-wide read the scan would have been, so
// Stats' stale-read fraction is identical whichever path the assessor takes.
func (s *AsyncStore) NoteScanReads(peers int) { s.noteReads(peers) }

// Flush implements Flusher: it applies the remaining partial batch to the
// inner store on the calling goroutine, so a File sequence followed by Flush
// is exactly reproducible, and returns the first sticky storage error.
func (s *AsyncStore) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyPendingLocked()
}

// Close flushes the backlog and refuses further filing: File and FileBatch
// after Close return ErrClosed, while reads stay valid.
func (s *AsyncStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return s.applyPendingLocked()
}

// Stats snapshots the pipeline accounting.
func (s *AsyncStore) Stats() AsyncStats {
	return AsyncStats{
		Enqueued:   s.enqueued.Load(),
		Applied:    s.applied.Load(),
		Batches:    s.batches.Load(),
		Reads:      s.reads.Load(),
		StaleReads: s.staleReads.Load(),
	}
}
