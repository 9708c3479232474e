package trustd

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"

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
// encode to equal bytes. The fold passes a base entry's ID as the bytes it
// is reading anyway.
func appendCheckpointEntry[ID ~string | ~[]byte](dst []byte, peer ID, t complaints.Tally) []byte {
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
	// whole encoding, which the tests' sort-merge oracle copies verbatim when
	// it is untouched, and its tallies.
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

// uvarint decodes a canonical varint from b. binary.Uvarint also accepts
// overlong encodings (a continuation byte before a final zero byte), which
// would let two files hold one state and the fold copy a non-canonical entry
// verbatim; uvarint reports n = 0 for them, as for a truncation.
func uvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, 0
	}
	return v, n
}

// uvarint decodes a header varint; what names it in the error.
func (r *checkpointReader) uvarint(what string) (uint64, error) {
	v, n := uvarint(r.body)
	if n <= 0 {
		return 0, fmt.Errorf("trustd: checkpoint truncated in %s", what)
	}
	r.body = r.body[n:]
	return v, nil
}

// next decodes the following entry into r.id, r.raw and r.tally. It reports
// false once every promised entry is read; a checkpoint with bytes left over
// at that point is an error. The fold calls it once per touched peer, so its
// varints are decoded inline rather than through the uvarint method.
func (r *checkpointReader) next() (bool, error) {
	if r.left == 0 {
		if len(r.body) != 0 {
			return false, fmt.Errorf("trustd: %d trailing bytes after checkpoint", len(r.body))
		}
		return false, nil
	}
	b := r.body
	l, n := uvarint(b)
	if n <= 0 || l > uint64(len(b)-n) {
		return false, fmt.Errorf("trustd: checkpoint truncated in peer ID")
	}
	id, b := b[n:n+int(l)], b[n+int(l):]
	rc, n := uvarint(b)
	if n <= 0 {
		return false, fmt.Errorf("trustd: checkpoint truncated in received count")
	}
	b = b[n:]
	fc, n := uvarint(b)
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

// skipEntry returns where the entry starting at b[pos] ends, or -1 when it
// runs past b. The fold calls it for every untouched base entry, whose bytes
// it copies verbatim, so it checks bounds only: the base was validated when
// it was read. Its common case, an ID under 128 bytes and single-byte counts,
// takes no loop.
func skipEntry(b []byte, pos int) int {
	if pos < len(b) && b[pos] < 0x80 {
		if end := pos + 1 + int(b[pos]) + 2; end <= len(b) && b[end-2]|b[end-1] < 0x80 {
			return end
		}
	}
	return skipEntrySlow(b, pos)
}

// skipEntrySlow is skipEntry for any entry.
func skipEntrySlow(b []byte, pos int) int {
	l, n := binary.Uvarint(b[min(pos, len(b)):])
	if n <= 0 || l > uint64(len(b)-pos-n) {
		return -1
	}
	pos += n + int(l)
	for range 2 { // the received and filed counts
		for pos < len(b) && b[pos] >= 0x80 {
			pos++
		}
		if pos++; pos > len(b) {
			return -1
		}
	}
	return pos
}

// decodeCheckpoint parses and validates a checkpoint file. Any malformation —
// wrong magic, bad CRC, truncation, trailing garbage, an overlong varint,
// counts overflowing an int, peers not strictly increasing — is an error:
// recovery then falls back to the previous checkpoint and the WAL, never to a
// partial snapshot. A checkpoint it accepts is exactly the encoding of the
// state it returns, and a valid base for the fold.
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

// folder builds each checkpoint from the one before it by dense peer index.
// It keeps that checkpoint's bytes and a second buffer to encode the next one
// into, and counts deltas in an array indexed like the peers, so a fold in
// steady state reads no file, sorts nothing, compares no peer IDs and
// allocates nothing. The server's foldMu guards it.
type folder struct {
	// The checkpoint the next fold starts from: a reader over its entries,
	// aliasing buf, and their count. Peers take dense indices on first sight,
	// so the peers indexed below nbase are exactly that checkpoint's peers.
	base  checkpointReader
	nbase int32
	// buf holds the base's bytes; out is the buffer the next fold encodes
	// into, and folded reads the entries of what fold last returned there.
	buf, out []byte
	folded   checkpointReader

	// Per peer index i: the received and filed deltas at 2i and 2i+1, and
	// bit i of touched set when either is nonzero. Both are zero between
	// folds. uint32 holds any fold's counts, since the complaints the cuts
	// retain would take 32 GB before one overflowed.
	delta   []uint32
	touched []uint64
}

// load makes data, the checkpoint recovery indexed npeers peers from, the
// base of the next fold. It is the fold's only file read after Open.
func (f *folder) load(data []byte, npeers int) error {
	_, r, err := openCheckpoint(data)
	if err != nil {
		return err
	}
	if r.left != uint64(npeers) {
		return fmt.Errorf("trustd: checkpoint holds %d peers, recovery indexed %d", r.left, npeers)
	}
	f.base, f.nbase, f.buf = r, int32(npeers), data
	return nil
}

// fold encodes the checkpoint at the newest of cuts: the base with every
// cut's complaints added, about's received and from's filed counter, exactly
// as a store files them. It walks the newest cut's sorted peer list once: a
// run of untouched base entries is copied in one append, a touched one is
// re-encoded from its base tallies plus its delta, and a peer new since the
// base is encoded from its delta. The result aliases the fold's output
// buffer, is byte-identical to encoding the same state from scratch, and
// becomes the next fold's base once rebase is called.
func (f *folder) fold(cuts []cut) ([]byte, error) {
	last := cuts[len(cuts)-1]
	n := len(last.peers)
	if k := 2*n - len(f.delta); k > 0 {
		f.delta = append(f.delta, make([]uint32, k)...)
	}
	if k := (n+63)/64 - len(f.touched); k > 0 {
		f.touched = append(f.touched, make([]uint64, k)...)
	}
	for _, c := range cuts {
		for _, x := range c.log {
			f.delta[2*x.about]++
			f.delta[2*x.from+1]++
			f.touched[x.about>>6] |= 1 << (x.about & 63)
			f.touched[x.from>>6] |= 1 << (x.from & 63)
		}
	}
	out, err := f.walk(last)
	if err != nil {
		clear(f.delta) // the walk stopped before clearing every touched counter
		clear(f.touched)
		return nil, err
	}
	return out, nil
}

// walk is the fold's pass over the newest cut's peers; it clears each
// touched counter as it consumes it.
func (f *folder) walk(last cut) ([]byte, error) {
	r, nbase := f.base, f.nbase
	// Sized for the usual fold: mostly known peers, a few entries a byte longer.
	out := slices.Grow(f.out[:0], len(f.buf)+len(f.buf)/16+64)
	out = appendCheckpointHeader(out, last.seq, len(last.peers))
	hdr := len(out)
	// The base's entries are b; those before pos are read, and those from
	// run to pos are untouched and not yet copied.
	b, pos, run, skipped := r.body, 0, 0, uint64(0)
	for i, x := range last.idx {
		if x < nbase && f.touched[x>>6]&(1<<(x&63)) == 0 {
			if pos = skipEntry(b, pos); pos < 0 {
				return nil, fmt.Errorf("trustd: checkpoint fold ran past the base's entries")
			}
			skipped++
			continue
		}
		out = append(out, b[run:pos]...)
		t := complaints.Tally{Received: int(f.delta[2*x]), Filed: int(f.delta[2*x+1])}
		if x < nbase {
			r.body, r.left = b[pos:], r.left-skipped
			skipped = 0
			ok, err := r.next()
			if !ok {
				if err == nil {
					err = fmt.Errorf("trustd: checkpoint fold ran past the base's entries")
				}
				return nil, err
			}
			pos = len(b) - len(r.body)
			t.Received += r.tally.Received
			t.Filed += r.tally.Filed
			out = appendCheckpointEntry(out, r.id, t) // the bytes being read, not a string elsewhere in the heap
		} else {
			out = appendCheckpointEntry(out, last.peers[i], t)
		}
		run = pos
		f.delta[2*x], f.delta[2*x+1] = 0, 0
		f.touched[x>>6] &^= 1 << (x & 63)
	}
	out = append(out, b[run:pos]...)
	if r.left != skipped || pos != len(b) {
		return nil, fmt.Errorf("trustd: checkpoint fold left %d of the base's entries", r.left-skipped)
	}
	out = sealCheckpoint(out)
	f.out = out
	f.folded = checkpointReader{body: out[hdr : len(out)-4], left: uint64(len(last.peers))}
	return out, nil
}

// rebase makes the checkpoint fold last returned the next fold's base, and
// the old base's buffer the next fold's output.
func (f *folder) rebase() {
	f.base, f.nbase = f.folded, int32(f.folded.left)
	f.buf, f.out = f.out, f.buf[:0]
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
