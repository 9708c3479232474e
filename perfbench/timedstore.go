package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
)

// The traced market run measures the complaints layer from outside: the
// engine opens its store as "timed:<backend>", and this decorator times every
// write and read the engine makes. It must expose exactly the optional
// extensions of the store it wraps — withholding Aggregator, say, would push
// the assessor onto the O(N) scan path and time a different program, while
// the results would stay bit-identical and hide it.

func init() {
	complaints.RegisterDecorator("timed", func(cfg complaints.BackendConfig) (complaints.Store, error) {
		inner := cfg.Inner
		if inner == "" {
			return nil, fmt.Errorf("timed backend needs an inner store (spec timed:<backend>)")
		}
		cfg.Inner = ""
		s, err := complaints.Open(inner, cfg)
		if err != nil {
			return nil, err
		}
		return wrapTimed(s)
	})
}

// storeTimer accumulates the calls and wall time of one store's writes
// (File, FileBatch) and reads (counts, snapshots, aggregate and generation
// queries).
type storeTimer struct {
	fileCalls, fileNs atomic.Int64
	readCalls, readNs atomic.Int64
}

func (t *storeTimer) file(start time.Time) {
	t.fileCalls.Add(1)
	t.fileNs.Add(int64(time.Since(start)))
}

func (t *storeTimer) read(start time.Time) {
	t.readCalls.Add(1)
	t.readNs.Add(int64(time.Since(start)))
}

// timedBase carries the Store methods every backend has.
type timedBase struct {
	in complaints.Store
	t  *storeTimer
}

func (b *timedBase) timer() *storeTimer { return b.t }

func (b *timedBase) File(c complaints.Complaint) error {
	start := time.Now()
	err := b.in.File(c)
	b.t.file(start)
	return err
}

func (b *timedBase) Received(p trust.PeerID) (int, error) {
	start := time.Now()
	n, err := b.in.Received(p)
	b.t.read(start)
	return n, err
}

func (b *timedBase) Filed(p trust.PeerID) (int, error) {
	start := time.Now()
	n, err := b.in.Filed(p)
	b.t.read(start)
	return n, err
}

// One forwarding type per optional extension; a wrapper embeds exactly the
// ones its inner store implements.
type (
	counterExt   struct{ b *timedBase }
	batchExt     struct{ b *timedBase }
	snapshotExt  struct{ b *timedBase }
	flushExt     struct{ b *timedBase }
	aggregateExt struct{ b *timedBase }
	mutationExt  struct{ b *timedBase }
	readAcctExt  struct{ b *timedBase }
	tallyExt     struct{ b *timedBase }
	closeExt     struct{ b *timedBase }
)

func (e counterExt) Counts(p trust.PeerID) (int, int, error) {
	start := time.Now()
	r, f, err := e.b.in.(complaints.Counter).Counts(p)
	e.b.t.read(start)
	return r, f, err
}

func (e batchExt) FileBatch(batch []complaints.Complaint) error {
	start := time.Now()
	err := e.b.in.(complaints.BatchFiler).FileBatch(batch)
	e.b.t.file(start)
	return err
}

func (e snapshotExt) CountsAll(peers []trust.PeerID) ([]complaints.Tally, error) {
	start := time.Now()
	out, err := e.b.in.(complaints.Snapshotter).CountsAll(peers)
	e.b.t.read(start)
	return out, err
}

func (e flushExt) Flush() error { return e.b.in.(complaints.Flusher).Flush() }

func (e aggregateExt) ProductAggregate() (int64, int, bool, error) {
	start := time.Now()
	excess, tracked, ok, err := e.b.in.(complaints.Aggregator).ProductAggregate()
	e.b.t.read(start)
	return excess, tracked, ok, err
}

func (e mutationExt) Mutations() (uint64, bool) {
	start := time.Now()
	gen, ok := e.b.in.(complaints.MutationCounter).Mutations()
	e.b.t.read(start)
	return gen, ok
}

func (e readAcctExt) NoteScanReads(peers int) {
	e.b.in.(complaints.ReadAccounter).NoteScanReads(peers)
}

func (e tallyExt) LoadTallies(peers []trust.PeerID, tallies []complaints.Tally) error {
	return e.b.in.(complaints.TallyLoader).LoadTallies(peers, tallies)
}

func (e closeExt) Close() error { return e.b.in.(interface{ Close() error }).Close() }

// Extension bits, one per optional interface a store may implement. Close is
// included because market.Engine closes stores that have it.
const (
	extCounter uint = 1 << iota
	extBatch
	extSnapshot
	extFlush
	extAggregate
	extMutation
	extReadAcct
	extTally
	extClose
	extAll = extClose<<1 - 1
)

// extensions reports which optional interfaces s implements.
func extensions(s complaints.Store) uint {
	var m uint
	add := func(ok bool, bit uint) {
		if ok {
			m |= bit
		}
	}
	_, ok := s.(complaints.Counter)
	add(ok, extCounter)
	_, ok = s.(complaints.BatchFiler)
	add(ok, extBatch)
	_, ok = s.(complaints.Snapshotter)
	add(ok, extSnapshot)
	_, ok = s.(complaints.Flusher)
	add(ok, extFlush)
	_, ok = s.(complaints.Aggregator)
	add(ok, extAggregate)
	_, ok = s.(complaints.MutationCounter)
	add(ok, extMutation)
	_, ok = s.(complaints.ReadAccounter)
	add(ok, extReadAcct)
	_, ok = s.(complaints.TallyLoader)
	add(ok, extTally)
	_, ok = s.(interface{ Close() error })
	add(ok, extClose)
	return m
}

// wrapTimed returns a timing decorator over in with in's exact extension
// set. Go cannot add methods at run time, so each extension set a registered
// backend has gets its own composition; any other set is refused rather than
// wrapped with a different one.
func wrapTimed(in complaints.Store) (complaints.Store, error) {
	b := &timedBase{in: in, t: &storeTimer{}}
	switch m := extensions(in); m {
	case extBatch | extSnapshot | extAggregate | extTally: // memory
		return &struct {
			*timedBase
			batchExt
			snapshotExt
			aggregateExt
			tallyExt
		}{b, batchExt{b}, snapshotExt{b}, aggregateExt{b}, tallyExt{b}}, nil
	case extCounter | extBatch | extSnapshot | extAggregate | extTally: // sharded
		return &struct {
			*timedBase
			counterExt
			batchExt
			snapshotExt
			aggregateExt
			tallyExt
		}{b, counterExt{b}, batchExt{b}, snapshotExt{b}, aggregateExt{b}, tallyExt{b}}, nil
	case extBatch | extFlush | extMutation: // pgrid
		return &struct {
			*timedBase
			batchExt
			flushExt
			mutationExt
		}{b, batchExt{b}, flushExt{b}, mutationExt{b}}, nil
	case extAll: // async over any backend
		return &struct {
			*timedBase
			counterExt
			batchExt
			snapshotExt
			flushExt
			aggregateExt
			mutationExt
			readAcctExt
			tallyExt
			closeExt
		}{b, counterExt{b}, batchExt{b}, snapshotExt{b}, flushExt{b}, aggregateExt{b},
			mutationExt{b}, readAcctExt{b}, tallyExt{b}, closeExt{b}}, nil
	default:
		return nil, fmt.Errorf("timed backend has no wrapper for the extension set %#x of %T", m, in)
	}
}

// timerOf returns the timer of a store opened as "timed:<backend>".
func timerOf(s complaints.Store) (*storeTimer, error) {
	ts, ok := s.(interface{ timer() *storeTimer })
	if !ok {
		return nil, fmt.Errorf("store %T is not a timed store", s)
	}
	return ts.timer(), nil
}
