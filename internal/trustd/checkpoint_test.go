package trustd

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
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
	// Checksummed, but a varint is overlong: the same state in other bytes.
	for i, b := range overlongCheckpointBodies() {
		if _, _, _, err := decodeCheckpoint(sealCheckpoint(b)); err == nil {
			t.Fatalf("overlong varint %d accepted", i)
		}
	}
}

// overlongCheckpointBodies returns the fixture's checkpoint, unsealed, with
// one varint of each kind encoded in a redundant second byte: the WAL
// sequence, the peer count, an ID length, a received and a filed count.
func overlongCheckpointBodies() [][]byte {
	seq, peers, tallies := checkpointFixture()
	data := encodeCheckpoint(seq, peers, tallies)
	body := data[:len(data)-4]
	// The header is 5 bytes, then the sequence and the count take one each;
	// "alice" starts at 7: its length, 5 ID bytes, then its two counts.
	var out [][]byte
	for _, at := range []int{5, 6, 7, 13, 14} {
		b := append(bytes.Clone(body[:at]), body[at]|0x80, 0x00)
		out = append(out, append(b, body[at+1:]...))
	}
	return out
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

// tallyDeltas sums what the complaint logs add to each peer's tallies —
// About's received and From's filed counter, exactly as a store files them —
// and returns the peers sorted with their deltas alongside. With
// foldCheckpoint it is the sort-merge fold the indexed fold replaced, kept
// as its oracle.
func tallyDeltas(logs [][]complaints.Complaint) ([]trust.PeerID, []complaints.Tally) {
	n := 0
	for _, l := range logs {
		n += len(l)
	}
	about, from := make([]trust.PeerID, 0, n), make([]trust.PeerID, 0, n)
	for _, l := range logs {
		for _, x := range l {
			about, from = append(about, x.About), append(from, x.From)
		}
	}
	slices.Sort(about)
	slices.Sort(from)
	peers := make([]trust.PeerID, 0, len(about)+len(from))
	deltas := make([]complaints.Tally, 0, cap(peers))
	for len(about) > 0 || len(from) > 0 {
		p := about
		if len(about) == 0 || len(from) > 0 && from[0] < about[0] {
			p = from
		}
		peer, t := p[0], complaints.Tally{}
		for ; len(about) > 0 && about[0] == peer; about = about[1:] {
			t.Received++
		}
		for ; len(from) > 0 && from[0] == peer; from = from[1:] {
			t.Filed++
		}
		peers, deltas = append(peers, peer), append(deltas, t)
	}
	return peers, deltas
}

// foldCheckpoint builds the checkpoint at walSeq from the previous one's
// bytes (nil for none) and the per-peer tally deltas of every batch applied
// since: a streaming merge of two sorted runs, so its cost is one pass over
// the previous file plus the deltas, and it reads no store. peers must be
// sorted and distinct, deltas parallel to them. npeers is the entry count of
// the result — every peer either run names. The output is appended to dst
// and is byte-identical to encoding the same state from scratch.
func foldCheckpoint(dst, prev []byte, walSeq uint64, npeers int, peers []trust.PeerID, deltas []complaints.Tally) ([]byte, error) {
	var r checkpointReader
	if prev != nil {
		var err error
		if _, r, err = openCheckpoint(prev); err != nil {
			return nil, err
		}
	}
	out := appendCheckpointHeader(dst, walSeq, npeers)
	written := 0
	ok, err := r.next()
	for err == nil && (ok || len(peers) > 0) {
		switch {
		case ok && (len(peers) == 0 || string(r.id) < string(peers[0])):
			out = append(out, r.raw...)
			ok, err = r.next()
		case ok && string(r.id) == string(peers[0]):
			t, d := r.tally, deltas[0]
			out = appendCheckpointEntry(out, peers[0], complaints.Tally{Received: t.Received + d.Received, Filed: t.Filed + d.Filed})
			peers, deltas = peers[1:], deltas[1:]
			ok, err = r.next()
		default:
			out = appendCheckpointEntry(out, peers[0], deltas[0])
			peers, deltas = peers[1:], deltas[1:]
		}
		written++
	}
	if err != nil {
		return nil, err
	}
	if written != npeers {
		return nil, fmt.Errorf("trustd: checkpoint fold wrote %d peers, the seen set holds %d", written, npeers)
	}
	return sealCheckpoint(out), nil
}

// mixedBatch draws a batch of 1..maxSize complaints among 4n peers in four
// groups of IDs: fixed-width numbers counting down from 9999999, "b" and "m"
// with a number of any length, and "zz" with a fixed-width number counting
// up. As n grows, new peers sort before the first group's, between the
// middle groups' and after the last group's, and IDs differ in length.
func mixedBatch(rng *rand.Rand, maxSize, n int) []complaints.Complaint {
	id := func() trust.PeerID {
		k := rng.Intn(n)
		switch rng.Intn(4) {
		case 0:
			return trust.PeerID(fmt.Sprintf("%07d", 9_999_999-k))
		case 1:
			return trust.PeerID(fmt.Sprintf("b%d", k))
		case 2:
			return trust.PeerID(fmt.Sprintf("m%d", k))
		}
		return trust.PeerID(fmt.Sprintf("zz%07d", k))
	}
	batch := make([]complaints.Complaint, 1+rng.Intn(maxSize))
	for j := range batch {
		batch[j] = complaints.Complaint{From: id(), About: id()}
	}
	return batch
}

// TestIndexedFoldMatchesSortMerge: every checkpoint a server folds by dense
// peer index is byte for byte the sort-merge fold of the same complaints
// onto the reference's previous checkpoint. The seeded runs cover IDs of
// mixed lengths whose new peers sort before, between and after the base's, a
// growth phase and then a steady one, one to three cuts (some empty) queued
// per fold, an empty base, a base recovered after a kill, and a base whose
// file was scribbled over after the fold that wrote it (which the next fold
// must never read again).
func TestIndexedFoldMatchesSortMerge(t *testing.T) {
	var emptyBase, multiCut, recovered, scribbled, before, between, after int
	for seed := int64(1); seed <= 3; seed++ {
		opts := Options{Dir: t.TempDir(), CheckpointEvery: math.MaxInt32} // cuts only by hand
		srv, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		var ref []byte // the reference's newest checkpoint, nil for none
		universe, reopened := 4, false
		for step := 0; step < 40; step++ {
			if step < 20 { // the growth phase; later folds meet no new peer
				universe += 1 + rng.Intn(universe)
			}
			var logs [][]complaints.Complaint
			for k := 1 + rng.Intn(3); k > 0; k-- {
				var log []complaints.Complaint
				for b := rng.Intn(4); b > 0; b-- {
					batch := mixedBatch(rng, 12, universe)
					if err := srv.Ingest(batch); err != nil {
						t.Fatal(err)
					}
					log = append(log, batch...)
				}
				srv.mu.Lock()
				err := srv.cutLocked()
				npeers := len(srv.seen)
				srv.mu.Unlock()
				if err != nil {
					t.Fatal(err)
				}
				logs = append(logs, log)
				if k == 1 {
					prev := ref
					peers, deltas := tallyDeltas(logs)
					if ref, err = foldCheckpoint(nil, prev, srv.walSeq(), npeers, peers, deltas); err != nil {
						t.Fatal(err)
					}
					b, n, a := placeNewPeers(t, prev, ref)
					before, between, after = before+b, between+n, after+a
				}
			}
			if len(logs) > 1 {
				multiCut++
			}
			switch {
			case srv.baseSeq == 0:
				emptyBase++
			case reopened:
				recovered++
			case step%5 == 2:
				garbage := []byte("not a checkpoint")
				if err := os.WriteFile(filepath.Join(opts.Dir, checkpointName(srv.baseSeq)), garbage, 0o644); err != nil {
					t.Fatal(err)
				}
				scribbled++
			}
			if err := srv.fold(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			got, err := os.ReadFile(filepath.Join(opts.Dir, checkpointName(srv.walSeq())))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, ref) {
				t.Fatalf("seed %d step %d: indexed fold (%d bytes) differs from the sort-merge fold (%d bytes)", seed, step, len(got), len(ref))
			}
			reopened = false
			if step == 12 || step == 31 {
				srv.kill()
				if srv, err = Open(opts); err != nil {
					t.Fatal(err)
				}
				reopened = true
			}
		}
		srv.Close()
	}
	t.Logf("folds onto: an empty base %d, a recovered base %d, a scribbled-over file %d; with several cuts %d", emptyBase, recovered, scribbled, multiCut)
	t.Logf("new peers sorting before the base's %d, between them %d, after them %d", before, between, after)
	if emptyBase == 0 || recovered == 0 || scribbled == 0 || multiCut == 0 || before == 0 || between == 0 || after == 0 {
		t.Fatal("a case went uncovered")
	}
}

// decodedPeers returns the peers of a checkpoint, none for nil.
func decodedPeers(t *testing.T, data []byte) []trust.PeerID {
	t.Helper()
	if data == nil {
		return nil
	}
	_, peers, _, err := decodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	return peers
}

// placeNewPeers counts the peers of next that prev lacks by where they sort:
// before prev's first peer, between its first and last, or after its last. A
// base with no peers has no such places.
func placeNewPeers(t *testing.T, prev, next []byte) (before, between, after int) {
	t.Helper()
	old := decodedPeers(t, prev)
	if len(old) == 0 {
		return 0, 0, 0
	}
	for _, p := range decodedPeers(t, next) {
		switch _, found := slices.BinarySearch(old, p); {
		case found:
		case p < old[0]:
			before++
		case p < old[len(old)-1]:
			between++
		default:
			after++
		}
	}
	return before, between, after
}

// foldFixture is a folder over a base of npeers peers, one complaint each way
// per peer, and a cut of ncomplaints uniform complaints among them. The dense
// indices are a shuffle of the sorted order, as they are once peers arrive
// in any order. It returns the complaints as IDs too, for the oracle.
func foldFixture(tb testing.TB, npeers, ncomplaints int) (*folder, []cut, []byte, []complaints.Complaint) {
	tb.Helper()
	peers := make([]trust.PeerID, npeers)
	tallies := make([]complaints.Tally, npeers)
	for i := range peers {
		peers[i] = trust.PeerID(fmt.Sprintf("p%06d", i))
		tallies[i] = complaints.Tally{Received: 1, Filed: 1}
	}
	base := encodeCheckpoint(1, peers, tallies)
	rng := rand.New(rand.NewSource(1))
	idx := make([]int32, npeers)
	byIdx := make([]trust.PeerID, npeers)
	for i, x := range rng.Perm(npeers) {
		idx[i], byIdx[x] = int32(x), peers[i]
	}
	log := make([]pair, ncomplaints)
	named := make([]complaints.Complaint, ncomplaints)
	for i := range log {
		log[i] = pair{from: int32(rng.Intn(npeers)), about: int32(rng.Intn(npeers))}
		named[i] = complaints.Complaint{From: byIdx[log[i].from], About: byIdx[log[i].about]}
	}
	f := new(folder)
	if err := f.load(base, npeers); err != nil {
		tb.Fatal(err)
	}
	return f, []cut{{seq: 2, log: log, peers: peers, idx: idx}}, base, named
}

// TestWarmFoldAllocatesNothing: once its counters and output buffer have
// grown, a fold at 10⁴ peers allocates nothing, and still matches the
// sort-merge fold.
func TestWarmFoldAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const npeers = 10_000
	f, cuts, base, named := foldFixture(t, npeers, 4096)
	peers, deltas := tallyDeltas([][]complaints.Complaint{named})
	want, err := foldCheckpoint(nil, base, 2, npeers, peers, deltas)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // cold, then warm
		got, err := f.fold(cuts)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("fold %d differs from the sort-merge fold", i)
		}
	}
	if a := testing.AllocsPerRun(20, func() { f.fold(cuts) }); a != 0 {
		t.Fatalf("a warm fold allocates %.1f times, want 0", a)
	}
}

// BenchmarkCheckpointFold prices a fold's CPU at trustd-ingest's shape: a
// 10⁵-peer base whose dense indices are shuffled against its sorted order,
// and 4096 complaints between uniform peers. It does no file I/O.
func BenchmarkCheckpointFold(b *testing.B) {
	f, cuts, _, _ := foldFixture(b, 100_000, DefaultCheckpointEvery)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := f.fold(cuts); err != nil {
			b.Fatal(err)
		}
	}
}
