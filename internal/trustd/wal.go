package trustd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
)

// The write-ahead log is a flat sequence of length-prefixed, checksummed
// records, one per ingested complaint batch:
//
//	[1 byte kind][4 bytes LE payload length][4 bytes LE CRC-32C][payload]
//
// The payload is the batch encoded with the complaints.Delta evidence codec —
// the same bytes a gossip envelope would carry, so the WAL is literally the
// durable form of the evidence plane's wire format. A record becomes durable
// atomically: replay accepts a record only when its full payload is present
// and the checksum matches, so a torn tail (power cut mid-write) is discarded
// cleanly, never half-applied. Anything that fails to parse — a truncated
// header, an absurd length, a checksum mismatch, an unknown kind, a payload
// the delta codec rejects — ends replay at the last good record; bytes past
// that point are the torn tail.
const (
	walRecordHeader = 9 // kind + length + checksum
	walKindBatch    = 0x01
)

// crcTable is the Castagnoli polynomial — hardware-accelerated on every
// platform the service targets.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrInjectedCrash is returned by the durability pipeline when the crash
// harness's injection point fires; the server treats it as fatal (kill -9):
// the in-flight operation is not acked and every later ingest is refused.
var ErrInjectedCrash = errors.New("trustd: injected crash")

// appendWALRecord encodes one non-empty complaint batch as a WAL record.
func appendWALRecord(dst []byte, batch []complaints.Complaint) []byte {
	payload := complaints.NewDelta(batch).Encode()
	dst = append(dst, walKindBatch)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...)
}

// replayWAL parses raw WAL bytes into the batches of the valid prefix and
// reports how many bytes that prefix spans. It never fails and never panics:
// the first record that does not fully parse ends the replay, and everything
// from it on is the discarded torn tail (len(data) - valid bytes). On bytes
// produced by appendWALRecord with no tear, replay∘write is the identity —
// the property FuzzWALReplay pins.
func replayWAL(data []byte) (batches [][]complaints.Complaint, valid int) {
	off := 0
	for {
		rest := data[off:]
		if len(rest) < walRecordHeader || rest[0] != walKindBatch {
			return batches, off
		}
		n := int(binary.LittleEndian.Uint32(rest[1:5]))
		if n == 0 || n > len(rest)-walRecordHeader {
			return batches, off
		}
		payload := rest[walRecordHeader : walRecordHeader+n]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(rest[5:9]) {
			return batches, off
		}
		d, err := trust.DecodeEvidence(trust.EvidenceComplaints, payload)
		if err != nil {
			return batches, off
		}
		batch := d.(*complaints.Delta).Complaints
		if len(batch) == 0 {
			// The writer never emits an empty batch, so a parseable record
			// with no complaints is corruption, not history.
			return batches, off
		}
		batches = append(batches, batch)
		off += walRecordHeader + n
	}
}

// walName is the file name of WAL segment seq.
func walName(seq uint64) string { return fmt.Sprintf("wal-%06d.log", seq) }

// wal is the active write-ahead log segment. Appends go straight to the
// file — no userspace buffering, so every byte the writer reports written is
// visible to a reopening process even after a hard kill. The caller (the
// server's ingest path) serialises access.
type wal struct {
	f     *os.File
	dir   string
	seq   uint64 // active segment sequence number
	size  int64  // bytes in the active segment
	fsync bool

	// total counts bytes appended across all segments of this process's
	// lifetime — the coordinate the crash harness's WALByteLimit cuts at.
	// appends and fsyncs count durable records and Sync calls over the same
	// lifetime; all three feed /metrics through Server.walCounters.
	total      int64
	appends    int64
	fsyncs     int64
	crashLimit int64 // 0 disables injection
	scratch    []byte
}

// openWAL opens (creating if needed) segment seq for appending at offset
// size — recovery passes the valid-prefix length so a torn tail is overwritten
// rather than left in front of new records. With fsync on, the directory is
// synced so a newly created segment's name is durable.
func openWAL(dir string, seq uint64, size int64, fsync bool) (*wal, error) {
	f, err := os.OpenFile(filepath.Join(dir, walName(seq)), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(size, 0); err != nil {
		f.Close()
		return nil, err
	}
	if fsync {
		if err := syncDir(dir); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &wal{f: f, dir: dir, seq: seq, size: size, fsync: fsync}, nil
}

// append writes one batch record. The record is durable — and the batch may
// be acked — only when append returns nil: a short write (including the
// harness's injected crash, which deliberately leaves a torn record on disk)
// reports an error and the record does not count.
func (w *wal) append(batch []complaints.Complaint) error {
	rec := appendWALRecord(w.scratch[:0], batch)
	w.scratch = rec[:0]
	if w.crashLimit > 0 {
		if remaining := w.crashLimit - w.total; remaining < int64(len(rec)) {
			// Simulate the power cut: part of the record reaches the disk,
			// then the process dies. Replay must discard the torn tail.
			if remaining > 0 {
				w.f.Write(rec[:remaining])
			}
			w.total = w.crashLimit
			return ErrInjectedCrash
		}
	}
	if _, err := w.f.Write(rec); err != nil {
		return err
	}
	w.size += int64(len(rec))
	w.total += int64(len(rec))
	w.appends++
	if w.fsync {
		w.fsyncs++
		return w.f.Sync()
	}
	return nil
}

// rotate closes the active segment and starts segment seq fresh, preserving
// the crash budget across the switch. With fsync on, the directory is synced
// too, so the new segment's name is as durable as the records synced into it.
func (w *wal) rotate(seq uint64) error {
	f, err := os.OpenFile(filepath.Join(w.dir, walName(seq)), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if w.fsync {
		if err := syncDir(w.dir); err != nil {
			f.Close()
			return err
		}
	}
	w.f.Close()
	w.f, w.seq, w.size = f, seq, 0
	return nil
}

// close releases the segment file; with fsync enabled the tail is flushed
// first.
func (w *wal) close() error {
	var err error
	if w.fsync {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}
