package trustd

import (
	"bytes"
	"math"
	"testing"

	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
)

// FuzzWALReplay pins the WAL's recovery contract on arbitrary bytes:
//
//  1. replayWAL never panics, whatever the input — hostile headers, absurd
//     lengths, torn records, non-canonical varints inside payloads.
//  2. The reported valid prefix is well-formed: 0 ≤ valid ≤ len(data), and a
//     replay of data[:valid] reproduces exactly the same batches (replay is
//     prefix-stable).
//  3. Re-encoding the replayed batches yields a log whose own replay is the
//     identity — write∘replay∘write is write, so recovery followed by a
//     checkpointless restart can never drift.
//
// On logs produced by appendWALRecord the valid prefix is the whole log and
// replay∘write is the identity outright (TestWALRoundTrip pins that on fixed
// fixtures; the seeds below hand the fuzzer the same shapes to mutate).
func FuzzWALReplay(f *testing.F) {
	// Seeds: empty, a clean one-record log, a clean multi-record log, a torn
	// tail, a flipped checksum, and leading garbage.
	f.Add([]byte{})
	one := appendWALRecord(nil, []complaints.Complaint{{From: "a", About: "b"}})
	f.Add(bytes.Clone(one))
	multi := appendWALRecord(bytes.Clone(one), []complaints.Complaint{{From: "m", About: "a"}, {From: "m", About: "b"}})
	f.Add(bytes.Clone(multi))
	f.Add(bytes.Clone(multi[:len(multi)-3]))
	flipped := bytes.Clone(multi)
	flipped[5] ^= 0xff
	f.Add(flipped)
	f.Add(append([]byte{0x00, 0x01, 0x02}, one...))

	f.Fuzz(func(t *testing.T, data []byte) {
		batches, valid := replayWAL(data)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid = %d outside [0, %d]", valid, len(data))
		}
		for _, b := range batches {
			if len(b) == 0 {
				t.Fatal("replay produced an empty batch")
			}
		}
		// Prefix stability: the valid prefix replays to the same batches.
		again, validAgain := replayWAL(data[:valid])
		if validAgain != valid || !batchesEqual(again, batches) {
			t.Fatalf("replay of the valid prefix diverged: %d bytes vs %d", validAgain, valid)
		}
		// Re-encode identity: writing the recovered batches produces a log
		// that replays to exactly those batches, consuming every byte.
		var re []byte
		for _, b := range batches {
			re = appendWALRecord(re, b)
		}
		reBatches, reValid := replayWAL(re)
		if reValid != len(re) || !batchesEqual(reBatches, batches) {
			t.Fatalf("re-encoded log is not a fixed point: %d/%d bytes, %d batches vs %d",
				reValid, len(re), len(reBatches), len(batches))
		}
	})
}

// FuzzCheckpointDecode pins the checkpoint decoder's contract on arbitrary
// bytes. The target seals each input with its CRC-32C, so the fuzzer reaches
// the parser rather than the checksum:
//
//  1. decodeCheckpoint never panics, on the sealed bytes or the raw ones.
//  2. What it accepts is exactly the encoding of the state it returns:
//     re-encoding that state gives the same bytes, so two files never hold
//     one state, and decoding those bytes gives the state back.
//  3. An accepted checkpoint is a valid base for the fold: loaded as the
//     base a restart's first fold reads, folding no complaints reproduces
//     it, and folding one complaint of its first peer about itself matches
//     encoding that state from scratch.
func FuzzCheckpointDecode(f *testing.F) {
	// Seeds: the fixture, an empty state, a large count, an overlong varint
	// in the header and in an entry, and peers out of order.
	body := func(data []byte) []byte { return data[:len(data)-4] }
	seq, peers, tallies := checkpointFixture()
	fixture := body(encodeCheckpoint(seq, peers, tallies))
	f.Add(bytes.Clone(fixture))
	f.Add(body(encodeCheckpoint(1, nil, nil)))
	f.Add(body(encodeCheckpoint(3, []trust.PeerID{"x"}, []complaints.Tally{{Received: math.MaxInt32 + 1, Filed: 300}})))
	for _, b := range overlongCheckpointBodies() {
		f.Add(b)
	}
	f.Add(body(encodeCheckpoint(2, []trust.PeerID{"b", "a"}, tallies[:2])))

	f.Fuzz(func(t *testing.T, body []byte) {
		decodeCheckpoint(body)
		data := sealCheckpoint(bytes.Clone(body))
		walSeq, peers, tallies, err := decodeCheckpoint(data)
		if err != nil {
			return
		}
		if re := encodeCheckpoint(walSeq, peers, tallies); !bytes.Equal(re, data) {
			t.Fatalf("accepted %d bytes that re-encode to %d different ones", len(data), len(re))
		}
		var fo folder
		if err := fo.load(data, len(peers)); err != nil {
			t.Fatalf("load of an accepted checkpoint: %v", err)
		}
		idx := make([]int32, len(peers))
		for i := range idx {
			idx[i] = int32(i)
		}
		out, err := fo.fold([]cut{{seq: walSeq, peers: peers, idx: idx}})
		if err != nil || !bytes.Equal(out, data) {
			t.Fatalf("folding no complaints: err %v, %d bytes for %d", err, len(out), len(data))
		}
		if len(peers) == 0 {
			return
		}
		out, err = fo.fold([]cut{{seq: walSeq, log: []pair{{}}, peers: peers, idx: idx}})
		tallies[0].Received++
		tallies[0].Filed++
		if want := encodeCheckpoint(walSeq, peers, tallies); err != nil || !bytes.Equal(out, want) {
			t.Fatalf("folding one complaint: err %v, %d bytes, want %d", err, len(out), len(want))
		}
	})
}
