// Package trustd is the trust service: a long-lived daemon wrapping the
// evidence plane. The ingest path accepts complaint batches (the
// complaints.Delta wire codec), makes each batch durable in a checksummed
// write-ahead log *before* acking, and applies it to a pluggable complaint
// store through the batched write path; the query path serves the decision
// rule's trust scores through the assessor's O(1) aggregate read behind a
// generation-keyed snapshot cache; periodic checkpoints cut the WAL and fold
// the complaints applied before the cut into the previous checkpoint, so a
// restarted — or killed — node replays checkpoint + WAL tail to the exact
// pre-crash state. "Exact"
// means bit-identical per-peer counts and population aggregate, proven by
// the crash-injection harness against an uncrashed reference store.
package trustd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
)

// CrashPlan injects deterministic failures into the durability pipeline for
// the crash-injection test harness. The zero value disables injection. An
// injected crash behaves like kill -9: the in-flight operation reports
// ErrInjectedCrash without acking, the server refuses all later ingests, and
// whatever bytes were already on disk — possibly a torn WAL record or a
// partial checkpoint temp file — are exactly what recovery gets.
type CrashPlan struct {
	// WALByteLimit cuts the WAL at an absolute byte offset: once the log has
	// durably written this many bytes (across segments), the next append
	// writes only the remaining budget — usually mid-record — and dies.
	// 0 disables.
	WALByteLimit int64
	// Checkpoint fires at a named point of the checkpoint protocol.
	Checkpoint CheckpointCrash
}

// Options configures a server.
type Options struct {
	// Dir is the durability directory (WAL segments + checkpoints).
	Dir string
	// Backend is the complaint-store spec ("memory", "sharded",
	// "async:sharded", …); empty means "sharded". The backend must restore
	// checkpoints (the complaints.TallyLoader extension).
	Backend string
	// Population fixes the peers trust scores are normalised over. nil keeps
	// it dynamic: every peer a durable complaint has mentioned.
	Population []trust.PeerID
	// Factor is the decision threshold; 0 or less means
	// complaints.DefaultFactor. It must be finite.
	Factor float64
	// CheckpointEvery triggers an automatic checkpoint after that many
	// complaints have been ingested since the last one; 0 or less means
	// DefaultCheckpointEvery. It also bounds the complaints the server
	// retains for the next checkpoint: CheckpointEvery plus one batch.
	CheckpointEvery int
	// Fsync syncs the WAL on every append. Off by default: the tests
	// simulate crashes at the file level, where write-through already holds.
	Fsync bool
	// Crash is the test harness's injection plan; zero disables.
	Crash CrashPlan
}

// DefaultCheckpointEvery is the checkpoint interval, in complaints, that
// Options.CheckpointEvery falls back to.
const DefaultCheckpointEvery = 4096

// Stats is a snapshot of the server's accounting.
type Stats struct {
	// IngestedBatches/IngestedComplaints count acked ingests this process.
	IngestedBatches    int64 `json:"ingested_batches"`
	IngestedComplaints int64 `json:"ingested_complaints"`
	// WALBytes/WALAppends/WALFsyncs are the record bytes, records and fsync
	// calls appended this process.
	WALBytes   int64 `json:"wal_bytes"`
	WALAppends int64 `json:"wal_appends"`
	WALFsyncs  int64 `json:"wal_fsyncs"`
	// Checkpoints counts snapshots written this process; WALSeq is the
	// active segment.
	Checkpoints int64  `json:"checkpoints"`
	WALSeq      uint64 `json:"wal_seq"`
	// Generation advances with every applied batch; the snapshot cache is
	// keyed by it.
	Generation uint64 `json:"generation"`
	// CacheHits/CacheMisses count query-path score lookups served from /
	// missing the generation-keyed snapshot cache.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// Recovery accounting: what Open found on disk.
	RecoveredCheckpointPeers int64 `json:"recovered_checkpoint_peers"`
	RecoveredBatches         int64 `json:"recovered_batches"`
	RecoveredComplaints      int64 `json:"recovered_complaints"`
	TornTailBytes            int64 `json:"torn_tail_bytes"`
	RecoveryNs               int64 `json:"recovery_ns"`
	// UptimeSeconds is the time since this process opened the server — the
	// same number /metrics exports as trustd_uptime_seconds, so the JSON and
	// Prometheus surfaces never disagree.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// Server is one trustd node. Open recovers it from its directory; Close
// drains and releases it; kill abandons it mid-flight (the crash harness's
// kill -9). A checkpoint has two halves. The cut serialises with ingest on
// mu, so it is always a consistent cut of the acked history: it rotates the
// WAL and takes the complaints applied since the previous cut and the sorted
// seen list, nothing more. The fold runs outside mu, on the goroutine that
// made the cut, and adds those complaints to the previous checkpoint, which
// it keeps in memory; foldMu serialises folds with each other and with
// Close and kill (lock order foldMu → mu).
// Queries run concurrently against the thread-safe store and the snapshot
// cache.
type Server struct {
	opts   Options
	store  complaints.Store
	factor float64
	fixed  []trust.PeerID // Options.Population, nil for dynamic

	foldMu  sync.Mutex
	baseSeq uint64 // the newest checkpoint's WAL sequence, 0 before the first
	ckpt    folder // that checkpoint, once a fold has read or written it

	mu sync.Mutex // ingest + cut + seen-set critical section
	// wal is the active log. seen maps every peer a durable complaint or the
	// recovered checkpoint names to its dense index, handed out on first
	// sight: the checkpoint's peers take 0…n−1 in file order, later peers
	// the next free index.
	wal  *wal
	seen map[trust.PeerID]int32
	// seenList is the seen set sorted, and seenIdx its peers' indices; both
	// are copy-on-write, since readers and cuts hold them outside mu.
	// newPeers are the peers seen since the last merge.
	seenList []trust.PeerID
	seenIdx  []int32
	newPeers []trust.PeerID
	log      []pair // applied since the last cut
	cuts     []cut  // cut but not yet folded, oldest first
	failed   error  // injected crash or storage failure, sticky
	closed   bool

	gen   atomic.Uint64
	stats struct {
		batches, complaints    atomic.Int64
		checkpoints            atomic.Int64
		cacheHits, cacheMisses atomic.Int64
		recoveredPeers         int64
		recoveredBatches       int64
		recoveredComplaints    int64
		tornTailBytes          int64
		recoveryNs             int64
	}

	cache   scoreCache
	metrics serverMetrics
}

// cut is a checkpoint between its halves: the WAL segment it started, the
// complaints applied before it since the previous cut, the sorted seen list
// and its indices as of the cut, and when it began.
type cut struct {
	seq   uint64
	log   []pair
	peers []trust.PeerID
	idx   []int32
	start time.Time
}

// pair is a retained complaint as its peers' dense indices: 8 bytes and no
// pointers, where a complaints.Complaint is 32 bytes with two.
type pair struct{ from, about int32 }

// errClosed refuses work on a closed or killed server.
var errClosed = errors.New("trustd: server closed")

// scoreCache memoises fully computed trust scores keyed by the store's write
// generation: every applied batch invalidates it wholesale, so a cached
// entry is always exactly what recomputing against the current counts would
// produce — the read-through contract the closed-loop equivalence test pins.
type scoreCache struct {
	mu     sync.Mutex
	gen    uint64
	scores map[trust.PeerID]Score
}

// Score is one served trust assessment — the complaint model's full read:
// both counters, the smoothed product, the decision rule's normalised score,
// the bridge probability and the binary verdict.
type Score struct {
	Peer        trust.PeerID `json:"peer"`
	Received    int          `json:"received"`
	Filed       int          `json:"filed"`
	Product     float64      `json:"product"`
	Score       float64      `json:"score"`
	Probability float64      `json:"probability"`
	Trustworthy bool         `json:"trustworthy"`
	Generation  uint64       `json:"generation"`
}

// Open builds the store, recovers checkpoint + WAL tail from opts.Dir, and
// returns a serving node. A fresh directory starts empty at WAL segment 1.
func Open(opts Options) (*Server, error) {
	if math.IsNaN(opts.Factor) || math.IsInf(opts.Factor, 0) {
		// A non-finite threshold makes every Probability NaN, which no JSON
		// encoder can serve.
		return nil, fmt.Errorf("trustd: Options.Factor must be finite, got %v", opts.Factor)
	}
	backend := opts.Backend
	if backend == "" {
		backend = "sharded"
	}
	store, err := complaints.Open(backend, complaints.BackendConfig{})
	if err != nil {
		return nil, err
	}
	if opts.Dir == "" {
		return nil, errors.New("trustd: Options.Dir is required")
	}
	if _, ok := store.(complaints.TallyLoader); !ok {
		return nil, fmt.Errorf("trustd: backend %q cannot restore checkpoints (no TallyLoader)", backend)
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = DefaultCheckpointEvery
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &Server{
		opts:   opts,
		store:  store,
		factor: opts.Factor,
		fixed:  opts.Population,
		seen:   make(map[trust.PeerID]int32),
	}
	s.metrics.start = time.Now()
	if s.factor <= 0 {
		s.factor = complaints.DefaultFactor
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// recover rebuilds the store from the newest valid checkpoint plus the WAL
// segments it does not cover, truncates any torn tail, and opens the active
// segment for appending.
func (s *Server) recover() error {
	start := time.Now()
	entries, err := os.ReadDir(s.opts.Dir)
	if err != nil {
		return err
	}
	var ckptSeqs, walSeqs []uint64
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			// A checkpoint that never made it to rename; dead weight.
			os.Remove(filepath.Join(s.opts.Dir, name))
		case strings.HasPrefix(name, "checkpoint-") && strings.HasSuffix(name, ".ckpt"):
			var seq uint64
			if _, err := fmt.Sscanf(name, "checkpoint-%d.ckpt", &seq); err == nil {
				ckptSeqs = append(ckptSeqs, seq)
			}
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			var seq uint64
			if _, err := fmt.Sscanf(name, "wal-%d.log", &seq); err == nil {
				walSeqs = append(walSeqs, seq)
			}
		}
	}
	sort.Slice(ckptSeqs, func(i, j int) bool { return ckptSeqs[i] > ckptSeqs[j] })
	sort.Slice(walSeqs, func(i, j int) bool { return walSeqs[i] < walSeqs[j] })

	// Newest checkpoint that validates wins; invalid ones (torn, hostile)
	// are skipped — the segments they would have superseded are still there.
	replayFrom := uint64(1)
	for _, seq := range ckptSeqs {
		data, err := os.ReadFile(filepath.Join(s.opts.Dir, checkpointName(seq)))
		if err != nil {
			continue
		}
		walSeq, peers, tallies, err := decodeCheckpoint(data)
		if err != nil {
			continue
		}
		if err := complaints.LoadAll(s.store, peers, tallies); err != nil {
			return err
		}
		s.seenIdx = make([]int32, len(peers))
		for i, p := range peers {
			s.seen[p] = int32(i)
			s.seenIdx[i] = int32(i)
		}
		s.seenList = peers // decodeCheckpoint accepts only sorted, distinct peers
		s.baseSeq = walSeq
		s.stats.recoveredPeers = int64(len(peers))
		replayFrom = walSeq
		break
	}

	// Replay every surviving segment the checkpoint does not cover, oldest
	// first; each segment's torn tail (normally only the last segment has
	// one) is discarded and counted.
	activeSeq, activeSize := replayFrom, int64(0)
	for _, seq := range walSeqs {
		if seq < replayFrom {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.opts.Dir, walName(seq)))
		if err != nil {
			return err
		}
		batches, valid := replayWAL(data)
		s.stats.tornTailBytes += int64(len(data) - valid)
		for _, batch := range batches {
			if err := complaints.FileAll(s.store, batch); err != nil {
				return fmt.Errorf("trustd: replaying %s: %w", walName(seq), err)
			}
			s.noteBatchLocked(batch)
			s.stats.recoveredBatches++
			s.stats.recoveredComplaints += int64(len(batch))
		}
		activeSeq, activeSize = seq, int64(valid)
	}
	// A write-behind store drains before serving: recovered counts must be
	// visible to the first query.
	if f, ok := s.store.(complaints.Flusher); ok {
		if err := f.Flush(); err != nil {
			return err
		}
	}
	s.wal, err = openWAL(s.opts.Dir, activeSeq, activeSize, s.opts.Fsync)
	if err != nil {
		return err
	}
	s.wal.crashLimit = s.opts.Crash.WALByteLimit
	// Files below the replay horizon are covered by the checkpoint and only
	// survive a crash between checkpoint write and cleanup.
	for _, seq := range walSeqs {
		if seq < replayFrom {
			os.Remove(filepath.Join(s.opts.Dir, walName(seq)))
		}
	}
	for _, seq := range ckptSeqs {
		if seq < s.baseSeq {
			os.Remove(filepath.Join(s.opts.Dir, checkpointName(seq)))
		}
	}
	s.stats.recoveryNs = time.Since(start).Nanoseconds()
	return nil
}

// noteBatchLocked retains an applied batch for the next cut and records the
// peers it mentions in the seen set (the dynamic population and the
// checkpoint cover). Caller holds mu (or is still single-threaded in
// recovery).
func (s *Server) noteBatchLocked(batch []complaints.Complaint) {
	for _, c := range batch {
		s.log = append(s.log, pair{from: s.indexLocked(c.From), about: s.indexLocked(c.About)})
	}
}

// indexLocked returns a peer's dense index, handing out the next one on
// first sight. An int32 runs out at 2³¹ peers, far past what the seen map
// fits in memory. Caller holds mu.
func (s *Server) indexLocked(p trust.PeerID) int32 {
	i, ok := s.seen[p]
	if !ok {
		i = int32(len(s.seen))
		s.seen[p] = i
		s.newPeers = append(s.newPeers, p)
	}
	return i
}

// errEmptyBatch rejects an empty complaint batch; over HTTP it is the
// client's error (400).
var errEmptyBatch = errors.New("trustd: empty complaint batch")

// Ingest makes one complaint batch durable and applies it: WAL append first
// (the ack barrier — an error here, injected crash included, means the batch
// does not count), then the store's batched write path, then the generation
// bump that invalidates the snapshot cache. Empty batches are rejected: the
// WAL has no empty-record encoding, and an unloggable no-op ack would be a
// lie about durability. The ingest that brings the complaints since the
// last cut to Options.CheckpointEvery cuts the WAL, and folds the checkpoint
// after releasing mu, before it returns.
func (s *Server) Ingest(batch []complaints.Complaint) error {
	if len(batch) == 0 {
		return errEmptyBatch
	}
	start := time.Now()
	didCut, err := s.apply(batch)
	if err != nil {
		return err
	}
	if didCut {
		// The batch is durable and applied — it stays acked; a failed fold
		// only marks the server failed, refusing further traffic.
		_ = s.fold()
	}
	// Acked batches only: failed ingests never count toward the latency
	// distribution, so its percentiles describe the service users got.
	s.metrics.ingest.Observe(time.Since(start))
	return nil
}

// apply is Ingest's critical section. It reports whether it cut the WAL.
func (s *Server) apply(batch []complaints.Complaint) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, errClosed
	}
	if s.failed != nil {
		return false, s.failed
	}
	if err := s.wal.append(batch); err != nil {
		s.failed = err
		return false, err
	}
	if err := complaints.FileAll(s.store, batch); err != nil {
		s.failed = err
		return false, err
	}
	s.noteBatchLocked(batch)
	s.gen.Add(1)
	s.stats.batches.Add(1)
	s.stats.complaints.Add(int64(len(batch)))
	if len(s.log) < s.opts.CheckpointEvery {
		return false, nil
	}
	if err := s.cutLocked(); err != nil {
		s.failed = err // the batch stays acked
		return false, nil
	}
	return true, nil
}

// Checkpoint cuts the WAL and folds the checkpoint on demand.
func (s *Server) Checkpoint() error {
	s.mu.Lock()
	err := s.failed
	if s.closed {
		err = errClosed
	}
	if err == nil {
		if err = s.cutLocked(); err != nil {
			s.failed = err
		}
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return s.fold()
}

// cutLocked is the checkpoint's locked half: rotate the WAL to the next
// segment and queue the complaints applied before it, with the seen list as
// of now, for the fold. Merging the list's pending new peers here costs what
// the next dynamic-population read would have, and spares it that merge.
// Caller holds mu, so no batch lands between the hand-over and the rotation.
func (s *Server) cutLocked() error {
	start := time.Now()
	seq := s.wal.seq + 1
	if err := s.wal.rotate(seq); err != nil {
		return err
	}
	peers := s.seenLocked()
	s.cuts = append(s.cuts, cut{seq: seq, log: s.log, peers: peers, idx: s.seenIdx, start: start})
	s.log = make([]pair, 0, len(s.log))
	s.metrics.checkpointCut.Observe(time.Since(start))
	return nil
}

// fold is the checkpoint's unlocked half. It takes every queued cut, adds
// their complaints to the previous checkpoint to build the checkpoint at the
// newest cut, lands it atomically, and then removes the WAL segments and the
// checkpoint it supersedes. It reads no store. It keeps the checkpoint it
// wrote in memory as the next fold's base, so only the first fold after Open
// reads a checkpoint file. A queue emptied by an earlier fold leaves nothing
// to do; a failure marks the server failed.
func (s *Server) fold() error {
	s.foldMu.Lock()
	defer s.foldMu.Unlock()
	s.mu.Lock()
	cuts, err := s.cuts, s.failed
	if s.closed {
		err = errClosed
	}
	s.cuts = nil
	s.mu.Unlock()
	if err != nil || len(cuts) == 0 {
		return err
	}
	last := cuts[len(cuts)-1]
	if s.baseSeq > 0 && s.ckpt.buf == nil {
		var data []byte
		if data, err = os.ReadFile(filepath.Join(s.opts.Dir, checkpointName(s.baseSeq))); err == nil {
			err = s.ckpt.load(data, int(s.stats.recoveredPeers))
		}
	}
	if err == nil {
		var data []byte
		if data, err = s.ckpt.fold(cuts); err == nil {
			err = writeCheckpoint(s.opts.Dir, last.seq, data, s.opts.Crash.Checkpoint)
		}
	}
	if err != nil {
		s.mu.Lock()
		if s.failed == nil {
			s.failed = err
		}
		s.mu.Unlock()
		return err
	}
	s.ckpt.rebase()
	for seq := max(s.baseSeq, 1); seq < last.seq; seq++ {
		os.Remove(filepath.Join(s.opts.Dir, walName(seq)))
	}
	if s.baseSeq > 0 {
		os.Remove(filepath.Join(s.opts.Dir, checkpointName(s.baseSeq)))
	}
	s.baseSeq = last.seq
	s.stats.checkpoints.Add(int64(len(cuts)))
	for _, c := range cuts {
		s.metrics.checkpoint.Observe(time.Since(c.start))
	}
	return nil
}

// seenLocked returns the sorted seen-peer list, and keeps seenIdx its
// indices. Peers seen since the last call are sorted and merged into fresh
// slices, never into the published ones, because callers read them outside
// mu. Caller holds mu.
func (s *Server) seenLocked() []trust.PeerID {
	if len(s.newPeers) == 0 {
		return s.seenList
	}
	slices.Sort(s.newPeers)
	old, oldIdx, add := s.seenList, s.seenIdx, s.newPeers
	merged := make([]trust.PeerID, 0, len(old)+len(add))
	idx := make([]int32, 0, cap(merged))
	for len(old) > 0 && len(add) > 0 {
		if old[0] < add[0] {
			merged, idx = append(merged, old[0]), append(idx, oldIdx[0])
			old, oldIdx = old[1:], oldIdx[1:]
		} else {
			merged, idx = append(merged, add[0]), append(idx, s.seen[add[0]])
			add = add[1:]
		}
	}
	merged, idx = append(merged, old...), append(idx, oldIdx...)
	for _, p := range add {
		merged, idx = append(merged, p), append(idx, s.seen[p])
	}
	s.seenList, s.seenIdx, s.newPeers = merged, idx, nil // a growth phase's backlog is not kept
	return merged
}

// population is the normalisation population of the query path: the fixed
// Options.Population, or the dynamic sorted seen set.
func (s *Server) population() []trust.PeerID {
	if s.fixed != nil {
		return s.fixed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seenLocked()
}

// assessor builds the query-path assessor. A literal (cache-less) assessor
// is deliberate: the server's own generation-keyed cache supersedes the
// per-assessor write-generation cache, and the aggregate O(1) path works on
// literals.
func (s *Server) assessor(pop []trust.PeerID) complaints.Assessor {
	return complaints.Assessor{Store: s.store, Factor: s.factor, Population: pop}
}

// generation is the snapshot-cache key: the store's own mutation counter
// when it keeps one (a backend mutated behind the server's back still
// invalidates), the server's applied-batch counter otherwise.
func (s *Server) generation() uint64 {
	if mc, ok := s.store.(complaints.MutationCounter); ok {
		if g, ok2 := mc.Mutations(); ok2 {
			return g
		}
	}
	return s.gen.Load()
}

// ScoreOf serves one peer's trust assessment through the snapshot cache: a
// hit returns the memoised Score (reporting the reads the computation would
// have performed through ReadAccounter, so write-behind staleness accounting
// is identical either way); a miss computes exactly what a direct assessor
// over the same store would — the byte-for-byte contract of the closed loop.
func (s *Server) ScoreOf(peer trust.PeerID) (Score, error) {
	start := time.Now()
	pop := s.population()
	gen := s.generation()
	s.cache.mu.Lock()
	if s.cache.gen != gen || s.cache.scores == nil {
		s.cache.gen = gen
		s.cache.scores = make(map[trust.PeerID]Score)
	}
	sc, hit := s.cache.scores[peer]
	s.cache.mu.Unlock()
	if hit {
		s.stats.cacheHits.Add(1)
		if ra, ok := s.store.(complaints.ReadAccounter); ok {
			// The cached entry stands in for one population average plus one
			// per-peer read.
			ra.NoteScanReads(len(pop) + 1)
		}
		s.metrics.queryWarm.Observe(time.Since(start))
		return sc, nil
	}
	s.stats.cacheMisses.Add(1)
	a := s.assessor(pop)
	// Mirror a direct NormalisedScore exactly — same reads, same order, same
	// float expressions: the population average first (served O(1) by
	// Aggregator backends, with the scan's reads reported), then one
	// combined per-peer read whose counters also ride along in the response.
	avg, err := a.AverageProduct()
	if err != nil {
		return Score{}, err
	}
	var cr, cf int
	if c, ok := s.store.(complaints.Counter); ok {
		cr, cf, err = c.Counts(peer)
	} else {
		if cr, err = s.store.Received(peer); err == nil {
			cf, err = s.store.Filed(peer)
		}
	}
	if err != nil {
		return Score{}, err
	}
	prod := float64(cr+1) * float64(cf+1)
	score := prod
	if avg > 0 {
		score = prod / avg
	}
	sc = Score{
		Peer:        peer,
		Received:    cr,
		Filed:       cf,
		Product:     prod,
		Score:       score,
		Probability: s.factor / (s.factor + score),
		Trustworthy: score <= s.factor,
		Generation:  gen,
	}
	s.cache.mu.Lock()
	if s.cache.gen == gen {
		s.cache.scores[peer] = sc
	}
	s.cache.mu.Unlock()
	s.metrics.queryCold.Observe(time.Since(start))
	return sc, nil
}

// Flush drains the store's write-behind backlog.
func (s *Server) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.store.(complaints.Flusher); ok {
		return f.Flush()
	}
	return nil
}

// Stats snapshots the accounting.
func (s *Server) Stats() Stats {
	bytes, appends, fsyncs, seq := s.walCounters()
	return Stats{
		IngestedBatches:          s.stats.batches.Load(),
		IngestedComplaints:       s.stats.complaints.Load(),
		WALBytes:                 bytes,
		WALAppends:               appends,
		WALFsyncs:                fsyncs,
		Checkpoints:              s.stats.checkpoints.Load(),
		WALSeq:                   seq,
		Generation:               s.gen.Load(),
		CacheHits:                s.stats.cacheHits.Load(),
		CacheMisses:              s.stats.cacheMisses.Load(),
		RecoveredCheckpointPeers: s.stats.recoveredPeers,
		RecoveredBatches:         s.stats.recoveredBatches,
		RecoveredComplaints:      s.stats.recoveredComplaints,
		TornTailBytes:            s.stats.tornTailBytes,
		RecoveryNs:               s.stats.recoveryNs,
		UptimeSeconds:            time.Since(s.metrics.start).Seconds(),
	}
}

// walCounters reads the WAL's accounting in one critical section — all WAL
// mutation happens under mu, so plain fields on the wal struct suffice.
func (s *Server) walCounters() (bytes, appends, fsyncs int64, seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal.total, s.wal.appends, s.wal.fsyncs, s.wal.seq
}

func (s *Server) walSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal.seq
}

// Close waits for a running fold, drains the store's write-behind backlog and
// releases the WAL — the graceful shutdown. Durable state is complete at this point: every acked
// batch is in the log, so a Close-less death loses nothing either (that is
// kill, and the crash harness's whole point).
func (s *Server) Close() error {
	s.foldMu.Lock()
	defer s.foldMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	if f, ok := s.store.(complaints.Flusher); ok {
		first = f.Flush()
	}
	if err := s.wal.close(); first == nil {
		first = err
	}
	if first == nil {
		first = s.failed
	}
	if errors.Is(first, ErrInjectedCrash) {
		// The injected death already did its job; a graceful close after the
		// harness inspected the corpse should not re-report it.
		first = nil
	}
	return first
}

// kill abandons the server without any draining — the in-process stand-in
// for kill -9 that the crash tests use. It waits only for a running fold to finish its file writes,
// so the next Open never races one. Only the file descriptor is released; no
// flush, no sync, no further checkpoint. Whatever the WAL and checkpoint files contain at this instant
// is what the next Open recovers.
func (s *Server) kill() {
	s.foldMu.Lock()
	defer s.foldMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.wal.f.Close()
}

// Handler is the HTTP surface:
//
//	POST /v1/complaints   body = complaints.Delta bytes → {"applied":N,...}
//	GET  /v1/score?peer=  one peer's Score
//	GET  /v1/counts?peer= raw counters
//	GET  /v1/stats        Stats
//	GET  /metrics         Prometheus text exposition (see metrics.go)
//	POST /v1/checkpoint   force a snapshot + WAL rotation
//	POST /v1/flush        drain the write-behind backlog
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/complaints", s.handleIngest)
	mux.HandleFunc("GET /v1/score", s.handleScore)
	mux.HandleFunc("GET /v1/counts", s.handleCounts)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.WriteMetrics(w)
	})
	mux.HandleFunc("POST /v1/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Checkpoint(); err != nil {
			httpError(w, http.StatusServiceUnavailable, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]uint64{"wal_seq": s.walSeq()})
	})
	mux.HandleFunc("POST /v1/flush", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Flush(); err != nil {
			httpError(w, http.StatusServiceUnavailable, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"flushed": true})
	})
	return mux
}

// maxIngestBytes bounds one ingest request body (64 MiB of encoded deltas —
// far beyond any sane batch, small enough to refuse a hostile stream). A
// longer body is answered 413, so a client can tell "split the batch" from
// "malformed".
const maxIngestBytes = 64 << 20

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxIngestBytes))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, err)
		return
	}
	d, err := trust.DecodeEvidence(trust.EvidenceComplaints, data)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	batch := d.(*complaints.Delta).Complaints
	if len(batch) == 0 {
		httpError(w, http.StatusBadRequest, errEmptyBatch)
		return
	}
	if err := s.Ingest(batch); err != nil {
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusOK, ingestAck{Applied: len(batch), Generation: s.gen.Load()})
}

// ingestAck is the body of an ingest's 200: {"applied":N,"generation":G}.
type ingestAck struct {
	Applied    int    `json:"applied"`
	Generation uint64 `json:"generation"`
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	peer := trust.PeerID(r.URL.Query().Get("peer"))
	if peer == "" {
		httpError(w, http.StatusBadRequest, errors.New("trustd: missing peer parameter"))
		return
	}
	sc, err := s.ScoreOf(peer)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusOK, sc)
}

func (s *Server) handleCounts(w http.ResponseWriter, r *http.Request) {
	peer := trust.PeerID(r.URL.Query().Get("peer"))
	if peer == "" {
		httpError(w, http.StatusBadRequest, errors.New("trustd: missing peer parameter"))
		return
	}
	start := time.Now()
	tallies, err := complaints.CountsAll(s.store, []trust.PeerID{peer})
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, err)
		return
	}
	s.metrics.queryCounts.Observe(time.Since(start))
	writeJSON(w, http.StatusOK, map[string]int{"received": tallies[0].Received, "filed": tallies[0].Filed})
}

// writeJSON answers status with v encoded as one JSON line. It encodes
// before it commits the status, so a value encoding/json refuses (a NaN, for
// one) is answered 500 with an error body instead of status with none.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(map[string]string{"error": "encode response: " + err.Error()}) // strings always encode
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
