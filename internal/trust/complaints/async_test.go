package complaints

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"trustcoop/internal/trust"
)

// TestAsyncStoreStaleUntilBatch pins the staleness contract of the
// write-behind drain: reads lag filing by up to BatchSize−1
// complaints, and the batch boundary (or Flush) makes them visible.
func TestAsyncStoreStaleUntilBatch(t *testing.T) {
	s := NewAsyncStore(NewMemoryStore(), AsyncConfig{BatchSize: 4})
	for i := 0; i < 3; i++ {
		if err := s.File(Complaint{From: trust.PeerID(fmt.Sprintf("v%d", i)), About: "b"}); err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := s.Received("b"); got != 0 {
		t.Errorf("Received(b) before the batch boundary = %d, want 0 (stale)", got)
	}
	// The fourth complaint fills the batch and applies it synchronously.
	if err := s.File(Complaint{From: "v3", About: "b"}); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Received("b"); got != 4 {
		t.Errorf("Received(b) after the batch boundary = %d, want 4", got)
	}
	// A partial batch drains on Flush.
	if err := s.File(Complaint{From: "v4", About: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Received("b"); got != 5 {
		t.Errorf("Received(b) after Flush = %d, want 5", got)
	}
	st := s.Stats()
	if st.Enqueued != 5 || st.Applied != 5 || st.Batches != 2 {
		t.Errorf("stats = %+v, want 5 enqueued, 5 applied, 2 batches", st)
	}
	if st.StaleReads == 0 || st.StaleReads >= st.Reads {
		t.Errorf("stats = %+v: want some but not all reads stale", st)
	}
}

// TestAsyncStoreDeterministicModeReproducible replays the same stream twice:
// every intermediate read must agree, which is what keeps experiment tables
// seed-reproducible over the async backend.
func TestAsyncStoreDeterministicModeReproducible(t *testing.T) {
	run := func() []int {
		s := NewAsyncStore(NewShardedStore(4), AsyncConfig{BatchSize: 3})
		var reads []int
		for i := 0; i < 20; i++ {
			if err := s.File(Complaint{From: trust.PeerID(fmt.Sprintf("p%d", i%5)), About: "b"}); err != nil {
				t.Fatal(err)
			}
			n, err := s.Received("b")
			if err != nil {
				t.Fatal(err)
			}
			reads = append(reads, n)
		}
		return reads
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("read %d differs between identical runs: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestAsyncStoreConcurrentFileAndRead drains concurrent File and
// Counts/Received/Filed calls into a sharded inner store — the shape of
// trustd's shared async:sharded store under concurrent ingest and query
// (run under -race in CI); after Flush the inner store must hold every
// complaint.
func TestAsyncStoreConcurrentFileAndRead(t *testing.T) {
	inner := NewShardedStore(8)
	s := NewAsyncStore(inner, AsyncConfig{BatchSize: 8})
	var population []trust.PeerID
	for i := 0; i < 16; i++ {
		population = append(population, trust.PeerID(fmt.Sprintf("p%d", i)))
	}
	const goroutines, ops = 8, 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				from := population[(g*5+i)%len(population)]
				about := population[(g*11+3*i)%len(population)]
				if err := s.File(Complaint{From: from, About: about}); err != nil {
					t.Error(err)
					return
				}
				if i%16 == 0 {
					if _, _, err := s.Counts(about); err != nil {
						t.Error(err)
						return
					}
					if _, err := s.Received(from); err != nil {
						t.Error(err)
						return
					}
					if _, err := s.Filed(about); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	var totalReceived, totalFiled int
	for _, p := range population {
		r, f, err := inner.Counts(p)
		if err != nil {
			t.Fatal(err)
		}
		totalReceived += r
		totalFiled += f
	}
	if want := goroutines * ops; totalReceived != want || totalFiled != want {
		t.Errorf("inner totals (%d received, %d filed), want %d each", totalReceived, totalFiled, want)
	}
	st := s.Stats()
	if st.Enqueued != int64(goroutines*ops) || st.Applied != st.Enqueued {
		t.Errorf("stats = %+v, want %d enqueued and all applied", st, goroutines*ops)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.File(Complaint{From: "a", About: "b"}); !errors.Is(err, ErrClosed) {
		t.Errorf("File after Close = %v, want ErrClosed", err)
	}
}

// TestAsyncStoreSurfacesInnerErrors: a failing inner store must not lose the
// error — it surfaces on the triggering File and stays sticky on Flush.
func TestAsyncStoreSurfacesInnerErrors(t *testing.T) {
	boom := errors.New("routing broke")
	s := NewAsyncStore(faultyStore{err: boom}, AsyncConfig{BatchSize: 2})
	if err := s.File(Complaint{From: "a", About: "b"}); err != nil {
		t.Fatalf("first (buffered) File = %v, want nil", err)
	}
	if err := s.File(Complaint{From: "c", About: "d"}); !errors.Is(err, boom) {
		t.Errorf("batch-boundary File = %v, want the inner error", err)
	}
	if err := s.Flush(); !errors.Is(err, boom) {
		t.Errorf("Flush = %v, want the sticky inner error", err)
	}
}

func TestAsyncStoreCloseDrains(t *testing.T) {
	inner := NewMemoryStore()
	s := NewAsyncStore(inner, AsyncConfig{BatchSize: 64})
	for i := 0; i < 10; i++ {
		if err := s.File(Complaint{From: "a", About: "b"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := inner.Received("b"); got != 10 {
		t.Errorf("Received(b) after Close = %d, want 10", got)
	}
	// Close is idempotent.
	if err := s.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
}
