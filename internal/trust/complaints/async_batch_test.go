package complaints

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"trustcoop/internal/trust"
)

func batchOf(n, salt int) []Complaint {
	batch := make([]Complaint, n)
	for i := range batch {
		batch[i] = Complaint{
			From:  trust.PeerID(fmt.Sprintf("from-%d", (i+salt)%7)),
			About: trust.PeerID(fmt.Sprintf("about-%d", (i*3+salt)%7)),
		}
	}
	return batch
}

// TestAsyncFileBatchDeterministicDrainAccounting: a FileBatch buffers with
// one lock pass and drains whenever a full batch has accumulated; the
// staleness accounting must track it exactly — enqueued counts every
// accepted complaint, applied advances in drain-sized steps, and reads
// between drains are stale.
func TestAsyncFileBatchDeterministicDrainAccounting(t *testing.T) {
	inner := NewMemoryStore()
	s := NewAsyncStore(inner, AsyncConfig{BatchSize: 8})
	if err := s.FileBatch(batchOf(5, 0)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Enqueued != 5 || st.Applied != 0 || st.Batches != 0 {
		t.Fatalf("below batch size, stats = %+v", st)
	}
	if _, err := s.Received("about-0"); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Reads != 1 || st.StaleReads != 1 {
		t.Fatalf("read with backlog not counted stale: %+v", st)
	}
	// Crossing the batch threshold drains everything buffered, in one batch.
	if err := s.FileBatch(batchOf(6, 1)); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Enqueued != 11 || st.Applied != 11 || st.Batches != 1 {
		t.Fatalf("after threshold crossing, stats = %+v", st)
	}
	// A drained store serves fresh reads.
	if _, err := s.Filed("from-1"); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Reads != 2 || st.StaleReads != 1 {
		t.Fatalf("fresh read counted stale: %+v", st)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Conservation: every enqueued complaint landed exactly once.
	total := 0
	for i := 0; i < 7; i++ {
		n, err := inner.Received(trust.PeerID(fmt.Sprintf("about-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total != 11 {
		t.Errorf("inner store holds %d complaints, want 11", total)
	}
}

// faultyBatchStore fails File and FileBatch but keeps counting attempts, to
// check that batched drains attempt everything and keep the first error.
type faultyBatchStore struct {
	err          error
	mu           sync.Mutex
	attempted    int
	batchedCalls int
}

func (f *faultyBatchStore) File(Complaint) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.attempted++
	return f.err
}

func (f *faultyBatchStore) FileBatch(batch []Complaint) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.attempted += len(batch)
	f.batchedCalls++
	return f.err
}

func (f *faultyBatchStore) Received(trust.PeerID) (int, error) { return 0, nil }
func (f *faultyBatchStore) Filed(trust.PeerID) (int, error)    { return 0, nil }

// TestAsyncFileBatchStickyErrorPropagation: an inner failure during a batch
// drain surfaces on the triggering FileBatch, stays sticky for later writes,
// and reappears on Flush and Close — complaints are never silently dropped,
// and the drain goes through the inner store's own FileBatch.
func TestAsyncFileBatchStickyErrorPropagation(t *testing.T) {
	boom := errors.New("disk on fire")
	inner := &faultyBatchStore{err: boom}
	s := NewAsyncStore(inner, AsyncConfig{BatchSize: 4})
	if err := s.FileBatch(batchOf(3, 0)); err != nil {
		t.Fatalf("below batch size must not drain: %v", err)
	}
	if err := s.FileBatch(batchOf(2, 1)); !errors.Is(err, boom) {
		t.Fatalf("drain error not surfaced: %v", err)
	}
	if inner.batchedCalls == 0 {
		t.Error("drain bypassed the inner FileBatch")
	}
	if inner.attempted != 5 {
		t.Errorf("%d complaints attempted, want all 5", inner.attempted)
	}
	if err := s.File(Complaint{From: "a", About: "b"}); !errors.Is(err, boom) {
		t.Errorf("sticky error not returned on later File: %v", err)
	}
	if err := s.Flush(); !errors.Is(err, boom) {
		t.Errorf("Flush: %v", err)
	}
	if err := s.Close(); !errors.Is(err, boom) {
		t.Errorf("Close: %v", err)
	}
}

// TestAsyncFileBatchAfterCloseErrors: a FileBatch after Close is refused
// with ErrClosed, while reads stay valid.
func TestAsyncFileBatchAfterCloseErrors(t *testing.T) {
	s := NewAsyncStore(NewShardedStore(4), AsyncConfig{BatchSize: 4})
	if err := s.FileBatch(batchOf(9, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.FileBatch(batchOf(2, 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("FileBatch after Close = %v, want ErrClosed", err)
	}
	if _, err := s.Received("about-0"); err != nil {
		t.Errorf("read after Close failed: %v", err)
	}
	st := s.Stats()
	if st.Enqueued != 9 || st.Applied != 9 {
		t.Errorf("stats after close = %+v", st)
	}
}

// TestAsyncFlushDuringFileBatchConcurrent hammers the write-behind store
// from three sides at once — batch writers, a flusher, and bulk readers —
// and checks conservation at the end. Run with -race (the CI race job does):
// this is the test that catches a drain path touching the pending buffer or
// the accounting outside the store mutex.
func TestAsyncFlushDuringFileBatchConcurrent(t *testing.T) {
	inner := NewShardedStore(8)
	s := NewAsyncStore(inner, AsyncConfig{BatchSize: 4})
	const writers, batches, batchLen = 4, 25, 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				if err := s.FileBatch(batchOf(batchLen, w*1000+b)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := s.Flush(); err != nil {
				t.Errorf("flush: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		peers := make([]trust.PeerID, 7)
		for i := range peers {
			peers[i] = trust.PeerID(fmt.Sprintf("about-%d", i))
		}
		for i := 0; i < 200; i++ {
			if _, err := CountsAll(s, peers); err != nil {
				t.Errorf("scan: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	want := int64(writers * batches * batchLen)
	if st.Enqueued != want || st.Applied != want {
		t.Fatalf("pipeline lost complaints: %+v, want %d", st, want)
	}
	total := 0
	for i := 0; i < 7; i++ {
		n, err := inner.Received(trust.PeerID(fmt.Sprintf("about-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if int64(total) != want {
		t.Errorf("inner store holds %d complaints, want %d", total, want)
	}
}
