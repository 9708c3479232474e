package trustd

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
)

// encodeCheckpoint serialises one snapshot from scratch — the reference the
// fold is checked against. Peers must be sorted.
func encodeCheckpoint(walSeq uint64, peers []trust.PeerID, tallies []complaints.Tally) []byte {
	out := appendCheckpointHeader(nil, walSeq, len(peers))
	for i, p := range peers {
		out = appendCheckpointEntry(out, p, tallies[i])
	}
	return sealCheckpoint(out)
}

func checkpointFixture() (uint64, []trust.PeerID, []complaints.Tally) {
	return 7,
		[]trust.PeerID{"alice", "bob", "mallory"},
		[]complaints.Tally{{Received: 1, Filed: 2}, {}, {Received: 9, Filed: 7}}
}

// TestCheckpointRoundTrip: decode∘encode is the identity, and equal states
// encode to equal bytes (the determinism the crash harness compares on).
func TestCheckpointRoundTrip(t *testing.T) {
	seq, peers, tallies := checkpointFixture()
	data := encodeCheckpoint(seq, peers, tallies)
	if !bytes.Equal(data, encodeCheckpoint(seq, peers, tallies)) {
		t.Fatal("same state encoded to different bytes")
	}
	gotSeq, gotPeers, gotTallies, err := decodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if gotSeq != seq {
		t.Fatalf("walSeq = %d, want %d", gotSeq, seq)
	}
	for i := range peers {
		if gotPeers[i] != peers[i] || gotTallies[i] != tallies[i] {
			t.Fatalf("record %d: (%s,%v) != (%s,%v)", i, gotPeers[i], gotTallies[i], peers[i], tallies[i])
		}
	}
}

// TestCheckpointRejectsCorruption: every single-byte flip and every
// truncation must be detected, and so must peers out of order — a
// checkpoint is either exactly right or rejected outright.
func TestCheckpointRejectsCorruption(t *testing.T) {
	seq, peers, tallies := checkpointFixture()
	data := encodeCheckpoint(seq, peers, tallies)
	for i := range data {
		mut := bytes.Clone(data)
		mut[i] ^= 0x5a
		if _, _, _, err := decodeCheckpoint(mut); err == nil {
			t.Fatalf("flip at byte %d accepted", i)
		}
	}
	for cut := 0; cut < len(data); cut++ {
		if _, _, _, err := decodeCheckpoint(data[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	if _, _, _, err := decodeCheckpoint(append(bytes.Clone(data), 0)); err == nil {
		t.Fatal("trailing garbage accepted (CRC over the wrong span)")
	}
	// Checksummed but not canonical: the fold needs strictly increasing peers.
	for _, ps := range [][]trust.PeerID{{"bob", "alice"}, {"bob", "bob"}} {
		if _, _, _, err := decodeCheckpoint(encodeCheckpoint(seq, ps, tallies[:2])); err == nil {
			t.Fatalf("peers %v accepted", ps)
		}
	}
}

// TestWriteCheckpointCrashPoints: each injection point leaves exactly the
// files its name promises.
func TestWriteCheckpointCrashPoints(t *testing.T) {
	seq, peers, tallies := checkpointFixture()
	data := encodeCheckpoint(seq, peers, tallies)
	final := checkpointName(seq)
	tmp := final + ".tmp"

	cases := []struct {
		crash          CheckpointCrash
		wantErr        bool
		wantTmp, wantF bool
	}{
		{CrashNone, false, false, true},
		{CrashMidTemp, true, true, false},
		{CrashAfterTemp, true, true, false},
		{CrashAfterRename, true, false, true},
	}
	for _, tc := range cases {
		dir := t.TempDir()
		err := writeCheckpoint(dir, seq, data, tc.crash)
		if (err != nil) != tc.wantErr {
			t.Fatalf("crash %d: err = %v, wantErr %v", tc.crash, err, tc.wantErr)
		}
		if _, serr := os.Stat(filepath.Join(dir, tmp)); (serr == nil) != tc.wantTmp {
			t.Errorf("crash %d: tmp file presence = %v, want %v", tc.crash, serr == nil, tc.wantTmp)
		}
		if _, serr := os.Stat(filepath.Join(dir, final)); (serr == nil) != tc.wantF {
			t.Errorf("crash %d: final file presence = %v, want %v", tc.crash, serr == nil, tc.wantF)
		}
		if tc.wantF && tc.crash != CrashAfterRename {
			onDisk, rerr := os.ReadFile(filepath.Join(dir, final))
			if rerr != nil || !bytes.Equal(onDisk, data) {
				t.Errorf("crash %d: final checkpoint bytes differ", tc.crash)
			}
		}
	}
}

// scanCheckpoint is the checkpoint a scan of the store implies: every seen
// peer, sorted, with the tallies CountsAll reads once the write-behind
// backlog has drained, at the active WAL segment. It is how checkpoints were
// built before the fold, and it is right only at a quiesced cut.
func scanCheckpoint(t *testing.T, s *Server) []byte {
	t.Helper()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	peers, seq := s.seenLocked(), s.wal.seq
	s.mu.Unlock()
	tallies, err := complaints.CountsAll(s.store, peers)
	if err != nil {
		t.Fatal(err)
	}
	return encodeCheckpoint(seq, peers, tallies)
}

// TestCheckpointFoldOracle: after every checkpoint of a seeded run — automatic
// folds, manual ones with and without new complaints, and folds onto a base
// recovered after a kill — the checkpoint file is byte-identical to the scan
// encoding of the quiesced store.
func TestCheckpointFoldOracle(t *testing.T) {
	for _, backend := range []string{"memory", "sharded", "async:sharded"} {
		t.Run(backend, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Dir: dir, Backend: backend, CheckpointEvery: 23}
			srv, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { srv.Close() }()
			checked := 0
			check := func(label string) {
				t.Helper()
				got, err := os.ReadFile(filepath.Join(dir, checkpointName(srv.walSeq())))
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if want := scanCheckpoint(t, srv); !bytes.Equal(got, want) {
					t.Fatalf("%s: folded checkpoint (%d bytes) differs from the scan encoding (%d bytes)", label, len(got), len(want))
				}
				checked++
			}
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 240; i++ {
				// A growing universe with IDs of mixed lengths, so new peers
				// sort before, between and after the ones already folded.
				before := srv.Stats().Checkpoints
				if err := srv.Ingest(randomBatch(rng, 8, 10+i)); err != nil {
					t.Fatal(err)
				}
				if srv.Stats().Checkpoints != before {
					check(fmt.Sprintf("batch %d", i))
				}
				switch i {
				case 70:
					for k := 0; k < 2; k++ { // the second has nothing new to fold
						if err := srv.Checkpoint(); err != nil {
							t.Fatal(err)
						}
						check(fmt.Sprintf("manual checkpoint %d after batch %d", k, i))
					}
				case 150:
					srv.kill()
					if srv, err = Open(opts); err != nil {
						t.Fatal(err)
					}
				}
			}
			if checked < 20 {
				t.Fatalf("only %d checkpoints checked", checked)
			}
		})
	}
}

// BenchmarkCheckpointFold prices a fold's CPU — tally deltas plus the merge —
// at trustd-ingest's shape: a 10⁵-peer base and 4096 complaints between
// uniform peers. It does no file I/O.
func BenchmarkCheckpointFold(b *testing.B) {
	const npeers = 100_000
	peers := make([]trust.PeerID, npeers)
	tallies := make([]complaints.Tally, npeers)
	for i := range peers {
		peers[i] = trust.PeerID(fmt.Sprintf("p%06d", i))
		tallies[i] = complaints.Tally{Received: 1, Filed: 1}
	}
	base := encodeCheckpoint(1, peers, tallies)
	rng := rand.New(rand.NewSource(1))
	log := make([]complaints.Complaint, DefaultCheckpointEvery)
	for i := range log {
		log[i] = complaints.Complaint{From: peers[rng.Intn(npeers)], About: peers[rng.Intn(npeers)]}
	}
	cuts := []cut{{seq: 2, log: log, npeers: npeers}}
	var out []byte
	b.ReportAllocs()
	for b.Loop() {
		ps, ds := tallyDeltas(cuts)
		var err error
		if out, err = foldCheckpoint(out[:0], base, 2, npeers, ps, ds); err != nil {
			b.Fatal(err)
		}
	}
}
