package complaints

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"trustcoop/internal/trust"
)

// TestComplaintDeltaRoundTrip: the complaint kind is registered, its codec
// is the identity — including separator-hostile and empty peer IDs — and
// the encoded size matches the wire estimate the gossip accounting has
// always used (len(From) + len(About) + 2 for short IDs).
func TestComplaintDeltaRoundTrip(t *testing.T) {
	batch := []Complaint{
		{From: "alice", About: "bob"},
		{From: "p:0>x", About: ""},
		{From: "", About: "p:1>y"},
		{From: "dup", About: "dup"},
	}
	d := NewDelta(batch)
	if d.Kind() != trust.EvidenceComplaints || d.Items() != len(batch) {
		t.Fatalf("delta shape: kind %s items %d", d.Kind(), d.Items())
	}
	wire := 0
	for _, c := range batch {
		wire += len(c.From) + len(c.About) + 2
	}
	enc := d.Encode()
	if len(enc) != wire || d.EncodedSize() != wire {
		t.Errorf("encoded %d bytes (EncodedSize %d), wire estimate %d", len(enc), d.EncodedSize(), wire)
	}
	got, err := trust.DecodeEvidence(trust.EvidenceComplaints, enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.(*Delta).Complaints, batch) {
		t.Errorf("round trip: %+v != %+v", got, batch)
	}
	if !bytes.Equal(got.Encode(), enc) {
		t.Error("re-encode differs")
	}
}

// TestComplaintDeltaEncodedSizeExactForLongIDs pins EncodedSize == len(Encode)
// where the old "+2" wire estimate breaks: IDs of 128+ bytes take a two-byte
// uvarint length prefix, and 16384+ take three. The delta must still round-trip
// and account for itself exactly there.
func TestComplaintDeltaEncodedSizeExactForLongIDs(t *testing.T) {
	long := func(n int) trust.PeerID { return trust.PeerID(bytes.Repeat([]byte{'x'}, n)) }
	for _, c := range []struct {
		batch      []Complaint
		shortGuess int // the naive len(From)+len(About)+2 figure
		want       int
	}{
		{[]Complaint{{From: long(127), About: "a"}}, 130, 130},             // both prefixes 1 byte
		{[]Complaint{{From: long(128), About: "a"}}, 131, 132},             // From prefix grows to 2
		{[]Complaint{{From: long(128), About: long(200)}}, 330, 332},       // both prefixes 2 bytes
		{[]Complaint{{From: long(16384), About: long(300)}}, 16686, 16689}, // 3-byte + 2-byte prefixes
	} {
		d := NewDelta(c.batch)
		enc := d.Encode()
		if d.EncodedSize() != len(enc) {
			t.Errorf("len(From)=%d: EncodedSize %d != len(Encode) %d", len(c.batch[0].From), d.EncodedSize(), len(enc))
		}
		if len(enc) != c.want {
			t.Errorf("len(From)=%d: encoded %d bytes, want %d (naive short-ID estimate %d)",
				len(c.batch[0].From), len(enc), c.want, c.shortGuess)
		}
		got, err := trust.DecodeEvidence(trust.EvidenceComplaints, enc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.(*Delta).Complaints, c.batch) {
			t.Errorf("len(From)=%d: round trip diverged", len(c.batch[0].From))
		}
	}
}

// TestComplaintDeltaDecodeRejectsTruncation: hostile bytes error, never
// panic or silently drop a record.
func TestComplaintDeltaDecodeRejectsTruncation(t *testing.T) {
	valid := NewDelta([]Complaint{{From: "ab", About: "cd"}}).Encode()
	for _, data := range [][]byte{
		valid[:1], valid[:3], valid[:len(valid)-1],
		{0xff}, {0x05, 'a'},
	} {
		if _, err := trust.DecodeEvidence(trust.EvidenceComplaints, data); err == nil {
			t.Errorf("truncated delta %x decoded", data)
		}
	}
}

// Merge folds a later delta into d: complaint counters commute, so it
// simply appends. No program coalesces deltas; the test below pins the
// rule.
func (d *Delta) Merge(other trust.EvidenceDelta) error {
	o, ok := other.(*Delta)
	if !ok {
		return fmt.Errorf("complaints: cannot merge %s delta into complaint delta", other.Kind())
	}
	d.Complaints = append(d.Complaints, o.Complaints...)
	return nil
}

// TestComplaintDeltaMergeConcatsInOrder: merge is concatenation (counters
// commute), preserving filing order, and rejects foreign kinds.
func TestComplaintDeltaMergeConcatsInOrder(t *testing.T) {
	a := NewDelta([]Complaint{{From: "a", About: "b"}})
	b := NewDelta([]Complaint{{From: "c", About: "d"}, {From: "e", About: "f"}})
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	want := []Complaint{{From: "a", About: "b"}, {From: "c", About: "d"}, {From: "e", About: "f"}}
	if !reflect.DeepEqual(a.Complaints, want) {
		t.Errorf("merged = %+v", a.Complaints)
	}
	if err := a.Merge(&trust.PosteriorDelta{Decay: 1}); err == nil {
		t.Error("cross-kind merge accepted")
	}
}
