package trustd

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"trustcoop/internal/testutil"
	"trustcoop/internal/trust/complaints"
)

// The crash-injection harness: drive a server into an injected kill -9 at a
// chosen point of the durability pipeline — a WAL byte offset (mid-header,
// mid-payload, between records) or a checkpoint protocol step — then restart
// from the directory and require the recovered counts and population
// aggregate to be bit-identical to a reference store fed exactly the batches
// the dead server acked. Acked-means-durable is the whole contract; these
// tests are the proof the ISSUE's acceptance criterion asks for.

// runUntilCrash ingests batches until the injected crash fires (or all land),
// returning the batches that were acked. A batch whose ingest reports
// ErrInjectedCrash was NOT acked — even though some of its bytes may be on
// disk as a torn record.
func runUntilCrash(t *testing.T, srv *Server, batches [][]complaints.Complaint) (acked [][]complaints.Complaint, crashed bool) {
	t.Helper()
	for _, b := range batches {
		if err := srv.Ingest(b); err != nil {
			if !errors.Is(err, ErrInjectedCrash) {
				t.Fatalf("ingest died with a non-injected error: %v", err)
			}
			return acked, true
		}
		acked = append(acked, b)
		if err := srv.lastCheckpointErr(); err != nil {
			// An auto-checkpoint crash after a durable ack: the batch counts,
			// and the server is now dead.
			if !errors.Is(err, ErrInjectedCrash) {
				t.Fatalf("checkpoint died with a non-injected error: %v", err)
			}
			return acked, true
		}
	}
	return acked, false
}

// lastCheckpointErr exposes the sticky failure for the harness: an injected
// checkpoint crash marks the server failed after the triggering ingest acks.
func (s *Server) lastCheckpointErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// assertRecoversExactly kills the server, reopens the directory with no
// injection, and byte-compares the recovered state against a fresh reference
// store fed exactly the acked batches.
func assertRecoversExactly(t *testing.T, dir, backend string, srv *Server, acked [][]complaints.Complaint, label string) Stats {
	t.Helper()
	srv.kill()
	srv2, err := Open(Options{Dir: dir, Backend: backend})
	if err != nil {
		t.Fatalf("%s: recovery failed: %v", label, err)
	}
	defer srv2.Close()
	peers := batchPeers(acked)
	want := referenceServerState(t, backend, acked, peers)
	got := renderServerState(t, srv2, peers)
	if got != want {
		t.Errorf("%s: recovered state differs from uncrashed reference:\n%s",
			label, testutil.FirstDiff(want, got))
	}
	st := srv2.Stats()
	if int(st.RecoveredBatches)+int(st.RecoveredCheckpointPeers) == 0 && len(acked) > 0 {
		t.Errorf("%s: %d acked batches but recovery reports nothing restored", label, len(acked))
	}
	return st
}

// TestCrashAtFuzzedWALOffsets kills the WAL at structured offsets around
// every record boundary (mid-kind, mid-length, mid-checksum, mid-payload)
// plus a spread of seeded random offsets, and requires exact recovery from
// each tear.
func TestCrashAtFuzzedWALOffsets(t *testing.T) {
	batches := testBatches(12, 6)
	// Compute record boundaries to target the structured offsets.
	var log []byte
	var ends []int64
	for _, b := range batches {
		log = appendWALRecord(log, b)
		ends = append(ends, int64(len(log)))
	}
	var offsets []int64
	for _, end := range ends[:len(ends)-1] {
		// Just after a record (clean cut), inside the next header, inside
		// the next payload.
		offsets = append(offsets, end, end+1, end+walRecordHeader-1, end+walRecordHeader+2)
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 12; i++ {
		offsets = append(offsets, 1+rng.Int63n(int64(len(log))))
	}

	for _, limit := range offsets {
		label := fmt.Sprintf("wal-cut@%d", limit)
		t.Run(label, func(t *testing.T) {
			dir := t.TempDir()
			srv, err := Open(Options{Dir: dir, Crash: CrashPlan{WALByteLimit: limit}})
			if err != nil {
				t.Fatal(err)
			}
			acked, crashed := runUntilCrash(t, srv, batches)
			if !crashed {
				t.Fatalf("limit %d never fired over a %d-byte log", limit, len(log))
			}
			// A dead server refuses further traffic.
			if err := srv.Ingest(batches[0]); !errors.Is(err, ErrInjectedCrash) {
				t.Errorf("post-crash ingest returned %v, want the sticky injected crash", err)
			}
			assertRecoversExactly(t, dir, "", srv, acked, label)
		})
	}
}

// TestCrashMidCheckpoint fires each checkpoint-protocol injection point
// during a fold and requires exact recovery: a torn temp file is ignored, a
// completed-but-unrenamed temp is ignored, and a renamed checkpoint whose
// superseded segments survive must not double-apply history. It does so
// once for an automatic checkpoint, and once with batches acked between the
// cut and its fold, which land in the post-cut segment: recovery must then
// replay the pre-cut segment (unless the new checkpoint landed) and the
// post-cut one.
func TestCrashMidCheckpoint(t *testing.T) {
	batches := testBatches(12, 6)
	for _, crash := range []CheckpointCrash{CrashMidTemp, CrashAfterTemp, CrashAfterRename} {
		label := fmt.Sprintf("checkpoint-crash-%d", crash)
		t.Run(label, func(t *testing.T) {
			dir := t.TempDir()
			srv, err := Open(Options{
				Dir:             dir,
				CheckpointEvery: 10, // fires mid-run
				Crash:           CrashPlan{Checkpoint: crash},
			})
			if err != nil {
				t.Fatal(err)
			}
			acked, crashed := runUntilCrash(t, srv, batches)
			if !crashed {
				t.Fatal("checkpoint injection never fired")
			}
			assertRecoversExactly(t, dir, "", srv, acked, label)
		})
		t.Run(label+"/post-cut-batches", func(t *testing.T) {
			dir := t.TempDir()
			srv, err := Open(Options{
				Dir:             dir,
				CheckpointEvery: 1 << 20, // only the explicit cut below
				Crash:           CrashPlan{Checkpoint: crash},
			})
			if err != nil {
				t.Fatal(err)
			}
			pre, post := batches[:7], batches[7:]
			for _, b := range pre {
				if err := srv.Ingest(b); err != nil {
					t.Fatal(err)
				}
			}
			srv.mu.Lock()
			err = srv.cutLocked()
			srv.mu.Unlock()
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range post { // acked into the post-cut segment
				if err := srv.Ingest(b); err != nil {
					t.Fatal(err)
				}
			}
			if err := srv.fold(); !errors.Is(err, ErrInjectedCrash) {
				t.Fatalf("fold returned %v, want the injected crash", err)
			}
			st := assertRecoversExactly(t, dir, "", srv, batches, label)
			wantBatches, wantPeers := len(batches), false
			if crash == CrashAfterRename {
				wantBatches, wantPeers = len(post), true
			}
			if int(st.RecoveredBatches) != wantBatches || (st.RecoveredCheckpointPeers > 0) != wantPeers {
				t.Errorf("recovery replayed %d batches over %d checkpoint peers; want %d batches, checkpoint used = %v",
					st.RecoveredBatches, st.RecoveredCheckpointPeers, wantBatches, wantPeers)
			}
		})
	}
}

// TestCrashThenCheckpointThenCrash layers the failure modes: a healthy
// checkpoint, more ingests, then a WAL tear in the post-checkpoint segment —
// recovery must combine checkpoint and torn tail exactly.
func TestCrashThenCheckpointThenCrash(t *testing.T) {
	batches := testBatches(20, 6)
	for _, backend := range []string{"sharded", "async:sharded"} {
		t.Run(backend, func(t *testing.T) {
			// First pass with no injection to learn the checkpoint's WAL
			// coordinates; then replay with a limit beyond the rotation.
			dir := t.TempDir()
			srv, err := Open(Options{Dir: dir, Backend: backend, CheckpointEvery: 15})
			if err != nil {
				t.Fatal(err)
			}
			var afterCkpt int64
			for i, b := range batches {
				if err := srv.Ingest(b); err != nil {
					t.Fatal(err)
				}
				if i == len(batches)/2 {
					afterCkpt = srv.Stats().WALBytes
				}
			}
			total := srv.Stats().WALBytes
			srv.kill()
			if afterCkpt >= total {
				t.Fatalf("bad fixture: mid-run offset %d not before total %d", afterCkpt, total)
			}

			limit := afterCkpt + (total-afterCkpt)/2
			dir2 := t.TempDir()
			srv2, err := Open(Options{
				Dir: dir2, Backend: backend, CheckpointEvery: 15,
				Crash: CrashPlan{WALByteLimit: limit},
			})
			if err != nil {
				t.Fatal(err)
			}
			acked, crashed := runUntilCrash(t, srv2, batches)
			if !crashed {
				t.Fatalf("limit %d never fired over %d total WAL bytes", limit, total)
			}
			if srv2.Stats().Checkpoints == 0 {
				t.Fatal("fixture did not checkpoint before the tear")
			}
			assertRecoversExactly(t, dir2, backend, srv2, acked, backend)
		})
	}
}

// TestRecoveryIgnoresHostileFiles: garbage WAL segments and corrupt
// checkpoints on disk must not panic recovery or corrupt state — the newest
// *valid* checkpoint wins, and garbage past the valid WAL prefix is torn off.
func TestRecoveryIgnoresHostileFiles(t *testing.T) {
	batches := testBatches(8, 5)
	dir := t.TempDir()
	srv, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := srv.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := renderServerState(t, srv, batchPeers(batches))
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Plant hostility: a corrupt newer checkpoint, a stray temp file, and
	// garbage appended to the active WAL segment.
	writeHostile(t, dir, checkpointName(99), []byte("TCKP garbage"))
	writeHostile(t, dir, checkpointName(98)+".tmp", []byte("half"))
	appendHostile(t, dir, walName(srvWALSeq(t, dir)), []byte{0x01, 0xff, 0xff, 0xff})

	srv2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if got := renderServerState(t, srv2, batchPeers(batches)); got != want {
		t.Errorf("hostile files changed recovered state:\n%s", testutil.FirstDiff(want, got))
	}
	if srv2.Stats().TornTailBytes == 0 {
		t.Error("garbage tail not reported as torn")
	}
}

func writeHostile(t *testing.T, dir, name string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func appendHostile(t *testing.T, dir, name string, data []byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, name), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// srvWALSeq finds the highest WAL segment sequence present in dir — the
// active segment of the last run.
func srvWALSeq(t *testing.T, dir string) uint64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var max uint64
	for _, e := range entries {
		var seq uint64
		if _, err := fmt.Sscanf(e.Name(), "wal-%d.log", &seq); err == nil && seq > max {
			max = seq
		}
	}
	if max == 0 {
		t.Fatal("no WAL segment on disk")
	}
	return max
}
