package complaints

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"trustcoop/internal/trust"
)

// DefaultShards is the shard count used when NewShardedStore is asked for
// zero shards — enough stripes that 8–16 concurrent filers rarely collide.
const DefaultShards = 16

// shardedEntry holds both complaint counters of one peer, so a single locked
// lookup serves the assessor's combined read (see Counter).
type shardedEntry struct {
	received, filed int
}

// shardedShard is one lock stripe, padded to a full 64-byte cache line
// (mutex 8 + map header 8 + two aggregate words 16 + 32) so neighbouring
// shard locks never false-share: contention on one stripe stays on its own
// line. excess and tracked are the stripe's partial product aggregate
// (Aggregator): written only under mu by the same bumps that mutate the
// counters, read lock-free by ProductAggregate's fold — per-stripe sums, so
// a population-wide average never takes a lock and writers on different
// stripes never touch each other's aggregate line.
type shardedShard struct {
	mu      sync.Mutex
	m       map[trust.PeerID]*shardedEntry
	excess  atomic.Int64
	tracked atomic.Int64
	_       [32]byte
}

// ShardedStore is the contention-resistant centralised Store: peers are
// hashed onto N lock-striped shards, so concurrent File/Received/Filed calls
// about different peers proceed in parallel instead of serialising on one
// mutex (MemoryStore's design). Each peer's two counters live in a single
// map entry, which also makes the assessor's combined Counts read one lookup
// instead of MemoryStore's two. It is safe for concurrent use.
type ShardedStore struct {
	seed   maphash.Seed
	shards []shardedShard
	mask   uint64
}

var (
	_ Store       = (*ShardedStore)(nil)
	_ Counter     = (*ShardedStore)(nil)
	_ BatchFiler  = (*ShardedStore)(nil)
	_ Snapshotter = (*ShardedStore)(nil)
	_ Aggregator  = (*ShardedStore)(nil)
)

// NewShardedStore returns an empty store with the given shard count rounded
// up to a power of two; shards <= 0 means DefaultShards.
func NewShardedStore(shards int) *ShardedStore {
	if shards <= 0 {
		shards = DefaultShards
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	s := &ShardedStore{seed: maphash.MakeSeed(), shards: make([]shardedShard, n), mask: uint64(n - 1)}
	for i := range s.shards {
		s.shards[i].m = make(map[trust.PeerID]*shardedEntry)
	}
	return s
}

func (s *ShardedStore) shard(p trust.PeerID) *shardedShard {
	return &s.shards[maphash.String(s.seed, string(p))&s.mask]
}

func (s *ShardedStore) bump(p trust.PeerID, filed bool) {
	sh := s.shard(p)
	sh.mu.Lock()
	sh.bumpLocked(p, filed)
	sh.mu.Unlock()
}

// File implements Store. The two counter bumps touch (usually) two different
// shards; each shard lock is taken and released independently, so File never
// holds two locks at once.
func (s *ShardedStore) File(c Complaint) error {
	s.bump(c.About, false)
	s.bump(c.From, true)
	return nil
}

// Received implements Store.
func (s *ShardedStore) Received(p trust.PeerID) (int, error) {
	r, _, err := s.Counts(p)
	return r, err
}

// Filed implements Store.
func (s *ShardedStore) Filed(p trust.PeerID) (int, error) {
	_, f, err := s.Counts(p)
	return f, err
}

// Counts implements Counter: both counters of the peer with one shard lock
// and one map lookup.
func (s *ShardedStore) Counts(p trust.PeerID) (received, filed int, err error) {
	sh := s.shard(p)
	sh.mu.Lock()
	if e := sh.m[p]; e != nil {
		received, filed = e.received, e.filed
	}
	sh.mu.Unlock()
	return received, filed, nil
}

// shardIdx is the stripe a peer hashes onto.
func (s *ShardedStore) shardIdx(p trust.PeerID) uint64 {
	return maphash.String(s.seed, string(p)) & s.mask
}

// bumpLocked increments one counter of p on a shard whose lock the caller
// holds, keeping the stripe's partial product aggregate in step: a received
// bump moves p's product from (r+1)(f+1) to (r+2)(f+1), growing excess by
// exactly f+1 read at bump time (symmetrically r+1 for a filed bump). The
// deltas telescope under any interleaving, so the folded excess always
// equals Σ(product−1) exactly — integer arithmetic, no float drift.
func (sh *shardedShard) bumpLocked(p trust.PeerID, filed bool) {
	e := sh.m[p]
	if e == nil {
		e = &shardedEntry{}
		sh.m[p] = e
		sh.tracked.Add(1)
	}
	if filed {
		sh.excess.Add(int64(e.received) + 1)
		e.filed++
	} else {
		sh.excess.Add(int64(e.filed) + 1)
		e.received++
	}
}

// groupByStripe counting-sorts n stripe-tagged entries into contiguous
// per-stripe ranges: starts[st]..starts[st+1] indexes the entries of stripe
// st in ordered position order. One O(n + shards) pass, no per-stripe
// rescans, peer hashes computed exactly once — all outside any lock.
func groupByStripe(stripes []uint32, nshards int) (starts, ordered []int32) {
	starts = make([]int32, nshards+1)
	for _, st := range stripes {
		starts[st+1]++
	}
	for i := 1; i < len(starts); i++ {
		starts[i] += starts[i-1]
	}
	ordered = make([]int32, len(stripes))
	cur := make([]int32, nshards)
	copy(cur, starts[:nshards])
	for i, st := range stripes {
		ordered[cur[st]] = int32(i)
		cur[st]++
	}
	return starts, ordered
}

// FileBatch implements BatchFiler: each complaint needs two counter bumps
// (received for About, filed for From); the bumps are grouped by stripe so
// every shard lock is taken at most once per batch, however large the batch —
// where File pays two lock acquisitions per complaint. Counter updates
// commute, so regrouping never changes the resulting counts.
func (s *ShardedStore) FileBatch(batch []Complaint) error {
	if len(batch) == 0 {
		return nil
	}
	// Bump b corresponds to batch[b/2]: even b is About's received bump, odd
	// b is From's filed bump.
	stripes := make([]uint32, 2*len(batch))
	for i, c := range batch {
		stripes[2*i] = uint32(s.shardIdx(c.About))
		stripes[2*i+1] = uint32(s.shardIdx(c.From))
	}
	starts, ordered := groupByStripe(stripes, len(s.shards))
	for st := range s.shards {
		lo, hi := starts[st], starts[st+1]
		if lo == hi {
			continue
		}
		sh := &s.shards[st]
		sh.mu.Lock()
		for _, b := range ordered[lo:hi] {
			c := batch[b/2]
			if b%2 == 0 {
				sh.bumpLocked(c.About, false)
			} else {
				sh.bumpLocked(c.From, true)
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// ProductAggregate implements Aggregator: the per-stripe partial sums are
// folded with one atomic load pair per stripe — no locks, no map touches —
// so the population average costs O(shards) regardless of population size.
// Writers publish each partial under their stripe lock, so a quiesced store
// folds to exactly what a CountsAll scan would sum.
func (s *ShardedStore) ProductAggregate() (excess int64, tracked int, ok bool, err error) {
	var t int64
	for i := range s.shards {
		excess += s.shards[i].excess.Load()
		t += s.shards[i].tracked.Load()
	}
	return excess, int(t), true, nil
}

// CountsAll implements Snapshotter: the population scan takes each touched
// shard lock once, instead of once per peer as repeated Counts calls would.
func (s *ShardedStore) CountsAll(peers []trust.PeerID) ([]Tally, error) {
	out := make([]Tally, len(peers))
	stripes := make([]uint32, len(peers))
	for i, p := range peers {
		stripes[i] = uint32(s.shardIdx(p))
	}
	starts, ordered := groupByStripe(stripes, len(s.shards))
	for st := range s.shards {
		lo, hi := starts[st], starts[st+1]
		if lo == hi {
			continue
		}
		sh := &s.shards[st]
		sh.mu.Lock()
		for _, i := range ordered[lo:hi] {
			if e := sh.m[peers[i]]; e != nil {
				out[i] = Tally{Received: e.received, Filed: e.filed}
			}
		}
		sh.mu.Unlock()
	}
	return out, nil
}
