package trustd

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
)

// A checkpoint is one atomic snapshot of the evidence plane: the complaint
// tallies of every peer a batch before a WAL cut named, plus the WAL segment
// sequence the cut started. Recovery loads the newest valid checkpoint and
// replays only WAL segments with seq >= its WALSeq — older segments are
// fully covered by the snapshot. The file is written to a temp name, synced,
// and renamed, so a crash mid-checkpoint leaves either the previous
// checkpoint (plus the still-intact WAL) or the new one — never a half
// state; a trailing CRC-32C guards against torn or hostile bytes that slip
// past the rename protocol anyway.
//
//	[4 bytes magic "TCKP"][1 byte version]
//	[uvarint walSeq][uvarint npeers]
//	npeers × ([uvarint len][peer ID][uvarint received][uvarint filed])
//	[4 bytes LE CRC-32C of everything above]
const (
	checkpointVersion = 1
)

var checkpointMagic = [4]byte{'T', 'C', 'K', 'P'}

// checkpointName is the file name of the checkpoint whose replay starts at
// WAL segment seq (the two share a sequence number by construction).
func checkpointName(seq uint64) string { return fmt.Sprintf("checkpoint-%06d.ckpt", seq) }

// appendCheckpointHeader starts a checkpoint: magic, version, the WAL
// segment replay resumes at, and the number of entries that follow.
func appendCheckpointHeader(dst []byte, walSeq uint64, npeers int) []byte {
	dst = append(dst, checkpointMagic[:]...)
	dst = append(dst, checkpointVersion)
	dst = binary.AppendUvarint(dst, walSeq)
	return binary.AppendUvarint(dst, uint64(npeers))
}

// appendCheckpointEntry encodes one peer's tallies — the only entry encoder.
// Entries must come in strictly increasing peer order, so equal states
// encode to equal bytes.
func appendCheckpointEntry(dst []byte, peer trust.PeerID, t complaints.Tally) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(peer)))
	dst = append(dst, peer...)
	dst = binary.AppendUvarint(dst, uint64(t.Received))
	return binary.AppendUvarint(dst, uint64(t.Filed))
}

// sealCheckpoint appends the CRC-32C of everything before it.
func sealCheckpoint(out []byte) []byte {
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
}

// checkpointReader walks the entries of a checkpoint whose checksum and
// header openCheckpoint has already verified. next is the only entry
// decoder, shared by decodeCheckpoint and the fold.
type checkpointReader struct {
	body []byte // entries not yet read
	left uint64 // entries the header promises beyond those read

	// The entry next decoded: its peer ID, aliasing the checkpoint bytes, its
	// whole encoding, which the fold copies verbatim when it is untouched,
	// and its tallies.
	id, raw []byte
	tally   complaints.Tally
}

// openCheckpoint validates a checkpoint's length, checksum, magic and
// version, and returns its WAL sequence and a reader over its entries.
func openCheckpoint(data []byte) (walSeq uint64, r checkpointReader, err error) {
	if len(data) < len(checkpointMagic)+1+4 {
		return 0, r, fmt.Errorf("trustd: checkpoint truncated (%d bytes)", len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(tail) {
		return 0, r, fmt.Errorf("trustd: checkpoint checksum mismatch")
	}
	if [4]byte(body[:4]) != checkpointMagic || body[4] != checkpointVersion {
		return 0, r, fmt.Errorf("trustd: not a version-%d checkpoint", checkpointVersion)
	}
	r.body = body[5:]
	if walSeq, err = r.uvarint("wal seq"); err != nil {
		return 0, r, err
	}
	if r.left, err = r.uvarint("peer count"); err != nil {
		return 0, r, err
	}
	if r.left > uint64(len(r.body)) { // every peer needs at least one byte
		return 0, r, fmt.Errorf("trustd: checkpoint claims %d peers in %d bytes", r.left, len(r.body))
	}
	return walSeq, r, nil
}

// uvarint decodes a header varint; what names it in the error.
func (r *checkpointReader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.body)
	if n <= 0 {
		return 0, fmt.Errorf("trustd: checkpoint truncated in %s", what)
	}
	r.body = r.body[n:]
	return v, nil
}

// next decodes the following entry into r.id, r.raw and r.tally. It reports
// false once every promised entry is read; a checkpoint with bytes left over
// at that point is an error. The fold calls it once per peer, so its varints
// are decoded inline rather than through uvarint.
func (r *checkpointReader) next() (bool, error) {
	if r.left == 0 {
		if len(r.body) != 0 {
			return false, fmt.Errorf("trustd: %d trailing bytes after checkpoint", len(r.body))
		}
		return false, nil
	}
	b := r.body
	l, n := binary.Uvarint(b)
	if n <= 0 || l > uint64(len(b)-n) {
		return false, fmt.Errorf("trustd: checkpoint truncated in peer ID")
	}
	id, b := b[n:n+int(l)], b[n+int(l):]
	rc, n := binary.Uvarint(b)
	if n <= 0 {
		return false, fmt.Errorf("trustd: checkpoint truncated in received count")
	}
	b = b[n:]
	fc, n := binary.Uvarint(b)
	if n <= 0 {
		return false, fmt.Errorf("trustd: checkpoint truncated in filed count")
	}
	b = b[n:]
	if int64(rc) < 0 || int64(fc) < 0 || int(rc) < 0 || int(fc) < 0 {
		return false, fmt.Errorf("trustd: checkpoint count overflows int")
	}
	r.left--
	r.id, r.raw, r.body = id, r.body[:len(r.body)-len(b)], b
	r.tally = complaints.Tally{Received: int(rc), Filed: int(fc)}
	return true, nil
}

// decodeCheckpoint parses and validates a checkpoint file. Any malformation —
// wrong magic, bad CRC, truncation, trailing garbage, counts overflowing an
// int, peers not strictly increasing — is an error: recovery then falls back
// to the previous checkpoint and the WAL, never to a partial snapshot. A
// checkpoint it accepts is a valid base for the fold.
func decodeCheckpoint(data []byte) (walSeq uint64, peers []trust.PeerID, tallies []complaints.Tally, err error) {
	walSeq, r, err := openCheckpoint(data)
	if err != nil {
		return 0, nil, nil, err
	}
	peers = make([]trust.PeerID, 0, r.left)
	tallies = make([]complaints.Tally, 0, r.left)
	for {
		ok, err := r.next()
		if err != nil {
			return 0, nil, nil, err
		}
		if !ok {
			return walSeq, peers, tallies, nil
		}
		if len(peers) > 0 && string(r.id) <= string(peers[len(peers)-1]) {
			return 0, nil, nil, fmt.Errorf("trustd: checkpoint peers out of order")
		}
		peers = append(peers, trust.PeerID(r.id))
		tallies = append(tallies, r.tally)
	}
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

// CheckpointCrash names an injection point of the checkpoint protocol for
// the crash harness; see CrashPlan.
type CheckpointCrash int

const (
	// CrashNone disables checkpoint injection.
	CrashNone CheckpointCrash = iota
	// CrashMidTemp dies halfway through writing the temp file: recovery must
	// ignore the partial temp and recover from the previous checkpoint + WAL.
	CrashMidTemp
	// CrashAfterTemp dies after the temp file is complete but before the
	// rename: same recovery obligation as CrashMidTemp.
	CrashAfterTemp
	// CrashAfterRename dies after the checkpoint is durable but before the
	// files it supersedes are removed: recovery must use the new checkpoint
	// and replay only the segments the cut started, never the older ones.
	CrashAfterRename
)

// writeCheckpoint lands the encoded snapshot atomically (temp + sync +
// rename + directory sync), firing the requested injection point on the
// way. The directory sync makes the rename itself survive a power loss, so
// the files the new checkpoint supersedes may be removed once it returns.
func writeCheckpoint(dir string, seq uint64, data []byte, crash CheckpointCrash) error {
	tmp := filepath.Join(dir, checkpointName(seq)+".tmp")
	if crash == CrashMidTemp {
		os.WriteFile(tmp, data[:len(data)/2], 0o644)
		return ErrInjectedCrash
	}
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if crash == CrashAfterTemp {
		return ErrInjectedCrash
	}
	if err := os.Rename(tmp, filepath.Join(dir, checkpointName(seq))); err != nil {
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	if crash == CrashAfterRename {
		return ErrInjectedCrash
	}
	return nil
}

// syncDir fsyncs a directory, making the creations, renames and removals
// in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
