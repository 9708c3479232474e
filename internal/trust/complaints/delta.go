package complaints

import (
	"encoding/binary"
	"fmt"

	"trustcoop/internal/trust"
)

// Delta is the complaint-kind evidence delta: the complaints one shard filed
// since its last export, in filing order. Complaint counters commute, so
// apply order never matters — the simplest instance of the
// trust.EvidenceDelta contract, wrapping exactly the batches the
// pre-evidence-plane gossip fabric shipped.
type Delta struct {
	// Complaints is the batch in filing order.
	Complaints []Complaint
}

var _ trust.EvidenceDelta = (*Delta)(nil)

// NewDelta wraps a complaint batch. The slice is retained, not copied.
func NewDelta(batch []Complaint) *Delta { return &Delta{Complaints: batch} }

// Kind implements trust.EvidenceDelta.
func (d *Delta) Kind() trust.EvidenceKind { return trust.EvidenceComplaints }

// Items implements trust.EvidenceDelta.
func (d *Delta) Items() int { return len(d.Complaints) }

// complaint delta wire format: per complaint, uvarint-length-prefixed From
// then About, with no header. EncodedSize is exact for every ID length —
// len(From) + len(About) plus one uvarint length prefix each, so a prefix
// grows past one byte once an ID reaches 128 bytes. (The familiar
// "len(From) + len(About) + 2" figure the gossip accounting reports for the
// experiments' short IDs is the short-ID special case of that formula, not
// the definition; delta_test.go pins the equality on multi-byte-prefix IDs.)

// EncodedSize implements trust.EvidenceDelta.
func (d *Delta) EncodedSize() int {
	n := 0
	for _, c := range d.Complaints {
		n += trust.UvarintLen(uint64(len(c.From))) + len(c.From)
		n += trust.UvarintLen(uint64(len(c.About))) + len(c.About)
	}
	return n
}

// Encode implements trust.EvidenceDelta.
func (d *Delta) Encode() []byte {
	out := make([]byte, 0, d.EncodedSize())
	for _, c := range d.Complaints {
		out = binary.AppendUvarint(out, uint64(len(c.From)))
		out = append(out, c.From...)
		out = binary.AppendUvarint(out, uint64(len(c.About)))
		out = append(out, c.About...)
	}
	return out
}

func decodeDelta(data []byte) (trust.EvidenceDelta, error) {
	d := &Delta{}
	readID := func(what string) (trust.PeerID, error) {
		l, n := binary.Uvarint(data)
		if n <= 0 || l > uint64(len(data)-n) {
			return "", fmt.Errorf("complaints: delta truncated in %s", what)
		}
		id := trust.PeerID(data[n : n+int(l)])
		data = data[n+int(l):]
		return id, nil
	}
	for len(data) > 0 {
		var c Complaint
		var err error
		if c.From, err = readID("complainer"); err != nil {
			return nil, err
		}
		if c.About, err = readID("accused"); err != nil {
			return nil, err
		}
		d.Complaints = append(d.Complaints, c)
	}
	return d, nil
}

func init() {
	trust.RegisterEvidenceKind(trust.EvidenceComplaints, decodeDelta)
}
