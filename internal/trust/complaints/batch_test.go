package complaints_test

import (
	"fmt"
	"testing"

	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"

	// Registers the "pgrid" backend so the property covers the
	// decentralised store too.
	_ "trustcoop/internal/pgrid"
)

// batchPeers is a small population whose IDs include separator characters,
// so the equivalence also covers backends with non-trivial encodings.
func batchPeers(n int) []trust.PeerID {
	ids := make([]trust.PeerID, n)
	for i := range ids {
		ids[i] = trust.PeerID(fmt.Sprintf("p:%d>x", i))
	}
	return ids
}

// batchWorkload builds a deterministic complaint mix: repeats, self-loops of
// attention (the same From filing about many peers), and peers that never
// appear.
func batchWorkload(ids []trust.PeerID, n int) []complaints.Complaint {
	batch := make([]complaints.Complaint, n)
	for i := range batch {
		batch[i] = complaints.Complaint{
			From:  ids[(i*3)%len(ids)],
			About: ids[(i*7+1)%len(ids)],
		}
	}
	return batch
}

func openBackend(t *testing.T, spec string) complaints.Store {
	t.Helper()
	store, err := complaints.Open(spec, complaints.BackendConfig{Seed: 11, GridPeers: 16, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// drain settles a write-behind store's backlog so the equivalence checks
// below read every complaint filed.
func drain(t *testing.T, store complaints.Store) {
	t.Helper()
	if f, ok := store.(complaints.Flusher); ok {
		if err := f.Flush(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFileBatchEquivalentToFilesOnEveryBackend is the batched write path's
// correctness property: for every registered backend, FileAll (which routes
// through FileBatch where implemented, one File at a time elsewhere) must
// leave exactly the counts that N individual File calls leave — for every
// peer, received and filed alike.
func TestFileBatchEquivalentToFilesOnEveryBackend(t *testing.T) {
	ids := batchPeers(9)
	workload := batchWorkload(ids, 53)
	for _, spec := range complaints.Backends() {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			single := openBackend(t, spec)
			for _, c := range workload {
				if err := single.File(c); err != nil {
					t.Fatal(err)
				}
			}
			drain(t, single)

			batched := openBackend(t, spec)
			// Mixed batch sizes, including empty and size-1 batches.
			for _, cut := range [][2]int{{0, 0}, {0, 1}, {1, 17}, {17, 17}, {17, 40}, {40, len(workload)}} {
				if err := complaints.FileAll(batched, workload[cut[0]:cut[1]]); err != nil {
					t.Fatal(err)
				}
			}
			drain(t, batched)

			for _, p := range ids {
				sr, sf, err := countsOf(single, p)
				if err != nil {
					t.Fatal(err)
				}
				br, bf, err := countsOf(batched, p)
				if err != nil {
					t.Fatal(err)
				}
				if sr != br || sf != bf {
					t.Errorf("peer %q: batched (%d,%d) != single (%d,%d)", p, br, bf, sr, sf)
				}
			}
		})
	}
}

func countsOf(s complaints.Store, p trust.PeerID) (received, filed int, err error) {
	received, err = s.Received(p)
	if err != nil {
		return 0, 0, err
	}
	filed, err = s.Filed(p)
	return received, filed, err
}

// TestCountsAllMatchesPerPeerReadsOnEveryBackend: the bulk Snapshotter scan
// must report exactly what per-peer reads report, on every backend (those
// without the extension exercise the fallback loop).
func TestCountsAllMatchesPerPeerReadsOnEveryBackend(t *testing.T) {
	ids := batchPeers(9)
	workload := batchWorkload(ids, 40)
	for _, spec := range complaints.Backends() {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			store := openBackend(t, spec)
			if err := complaints.FileAll(store, workload); err != nil {
				t.Fatal(err)
			}
			drain(t, store)
			tallies, err := complaints.CountsAll(store, ids)
			if err != nil {
				t.Fatal(err)
			}
			if len(tallies) != len(ids) {
				t.Fatalf("%d tallies for %d peers", len(tallies), len(ids))
			}
			for i, p := range ids {
				cr, cf, err := countsOf(store, p)
				if err != nil {
					t.Fatal(err)
				}
				if tallies[i].Received != cr || tallies[i].Filed != cf {
					t.Errorf("peer %q: CountsAll (%d,%d) != per-peer (%d,%d)",
						p, tallies[i].Received, tallies[i].Filed, cr, cf)
				}
			}
		})
	}
}

// TestAssessorIdenticalOverBatchAndSingleWrites: the end-to-end property the
// marketplace depends on — trust decisions computed over batch-filed
// evidence equal those over singly-filed evidence, product by product.
func TestAssessorIdenticalOverBatchAndSingleWrites(t *testing.T) {
	ids := batchPeers(7)
	workload := batchWorkload(ids, 31)
	for _, spec := range []string{"memory", "sharded"} {
		single, batched := openBackend(t, spec), openBackend(t, spec)
		for _, c := range workload {
			if err := single.File(c); err != nil {
				t.Fatal(err)
			}
		}
		if err := complaints.FileAll(batched, workload); err != nil {
			t.Fatal(err)
		}
		sa := complaints.Assessor{Store: single, Population: ids}
		ba := complaints.Assessor{Store: batched, Population: ids}
		for _, p := range ids {
			sp, err := sa.NormalisedScore(p)
			if err != nil {
				t.Fatal(err)
			}
			bp, err := ba.NormalisedScore(p)
			if err != nil {
				t.Fatal(err)
			}
			if sp != bp {
				t.Errorf("%s: peer %q score %v != %v", spec, p, bp, sp)
			}
		}
	}
}
