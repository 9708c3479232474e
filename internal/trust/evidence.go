package trust

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
)

// EvidenceKind names a trust-evidence representation. Every kind
// has a registered decoder (RegisterEvidenceKind), so transports — the
// cross-shard gossip fabric, a future wire protocol — can move evidence
// without knowing which trust model produced it.
type EvidenceKind string

// The evidence kinds shipped with the repository.
const (
	// EvidenceComplaints is the Aberer–Despotovic complaint batch
	// (internal/trust/complaints.Delta): a list of (From, About) records
	// whose counters commute, so merging is plain concatenation.
	EvidenceComplaints EvidenceKind = "complaints"
	// EvidencePosterior is the Bayesian direct-experience delta
	// (PosteriorDelta): per (observer, subject) the decayed cooperation /
	// defection weight recorded since the last export, plus the observation
	// count that drives decay compensation on apply.
	EvidencePosterior EvidenceKind = "posterior"
)

// EvidenceDelta is a unit of trust evidence: everything one shard learned
// since its last export, in a form a peer shard can fold into its own trust
// state. Implementations are the bridge between trust models and transports
// — the model defines what a delta means, the transport only moves bytes.
// Encode is deterministic, and Decode∘Encode is the identity (the registered
// decoder reconstructs an equal delta — byte-equal on re-encode).
type EvidenceDelta interface {
	// Kind names the evidence representation.
	Kind() EvidenceKind
	// Items is the number of evidence units carried (complaints, posterior
	// rows) — the unit of transport delivery accounting.
	Items() int
	// EncodedSize is len(Encode()) without materialising the encoding.
	EncodedSize() int
	// Encode serialises the delta deterministically.
	Encode() []byte
}

// evidence decoder registry
var (
	evidenceMu       sync.RWMutex
	evidenceDecoders = map[EvidenceKind]func([]byte) (EvidenceDelta, error){}
)

// RegisterEvidenceKind adds a decoder for an evidence kind. Kinds register
// from init (this package registers EvidencePosterior; complaints registers
// EvidenceComplaints), so duplicates and nil decoders panic.
func RegisterEvidenceKind(kind EvidenceKind, decode func([]byte) (EvidenceDelta, error)) {
	if kind == "" || decode == nil {
		panic("trust: RegisterEvidenceKind with empty kind or nil decoder")
	}
	evidenceMu.Lock()
	defer evidenceMu.Unlock()
	if _, dup := evidenceDecoders[kind]; dup {
		panic(fmt.Sprintf("trust: evidence kind %q registered twice", kind))
	}
	evidenceDecoders[kind] = decode
}

// EvidenceKinds lists the registered kinds, sorted.
func EvidenceKinds() []EvidenceKind {
	evidenceMu.RLock()
	defer evidenceMu.RUnlock()
	out := make([]EvidenceKind, 0, len(evidenceDecoders))
	for k := range evidenceDecoders {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DecodeEvidence reconstructs a delta of the given kind from its encoding.
// Malformed bytes yield an error, never a panic — transports decode data
// that crossed a trust boundary.
func DecodeEvidence(kind EvidenceKind, data []byte) (EvidenceDelta, error) {
	evidenceMu.RLock()
	decode := evidenceDecoders[kind]
	evidenceMu.RUnlock()
	if decode == nil {
		return nil, fmt.Errorf("trust: unknown evidence kind %q (registered: %v)", kind, EvidenceKinds())
	}
	return decode(data)
}

// PosteriorRow is one (observer, subject) fragment of a posterior delta:
// the witness-weighted cooperation/defection mass the observer recorded
// about the subject since the last export — already decayed to export time —
// and the number of observations behind it, which tells the applying
// estimator how much to decay its own prior counts (each observation decays
// once, wherever it happened).
type PosteriorRow struct {
	Observer, Subject PeerID
	Coop, Defect      float64
	Obs               uint64
}

func (r PosteriorRow) key() [2]PeerID { return [2]PeerID{r.Observer, r.Subject} }

func lessKey(a, b [2]PeerID) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// PosteriorDelta is the evidence of the Bayesian direct-experience
// model (Beta, and the mui witness network built from it): rows strictly
// ordered by (Observer, Subject). Produced by Beta.ExportDelta (via
// gossip.Book or mui.Network), consumed by Beta.ApplyDelta.
type PosteriorDelta struct {
	// Decay is the producing estimator's per-observation forgetting factor
	// in (0, 1]; apply requires it to match, since the decay compensation
	// is defined in terms of it.
	Decay float64
	// Codec selects the wire encoding (PosteriorDense, the PR 5 row-major
	// default, or PosteriorColumnar). Decoding restores whichever codec the
	// bytes were in.
	Codec PosteriorCodec
	// Quantum is the lossy fixed-point fractional bit count for encoded
	// masses; 0 means lossless. Only the columnar codec can carry it — the
	// in-memory rows always hold the exact (possibly quantized) values.
	Quantum uint8
	// Rows is strictly ascending by (Observer, Subject).
	Rows []PosteriorRow
}

var _ EvidenceDelta = (*PosteriorDelta)(nil)

// decayFactor is decay^obs, with the exact-identity fast paths the
// byte-identity contracts rely on (decay 1 and single observations).
func decayFactor(decay float64, obs uint64) float64 {
	switch {
	case decay == 1 || obs == 0:
		return 1
	case obs == 1:
		return decay
	default:
		return math.Pow(decay, float64(obs))
	}
}

// Kind implements EvidenceDelta.
func (d *PosteriorDelta) Kind() EvidenceKind { return EvidencePosterior }

// Items implements EvidenceDelta.
func (d *PosteriorDelta) Items() int { return len(d.Rows) }

// ApplyPerObserver folds the delta into per-observer estimators: rows
// group by consecutive Observer runs (the canonical order guarantees each
// observer's rows are contiguous) and each group lands on lookup(observer)
// through Beta.ApplyDelta — the apply half of gossip.Book.
func (d *PosteriorDelta) ApplyPerObserver(lookup func(PeerID) *Beta) error {
	for lo := 0; lo < len(d.Rows); {
		hi := lo
		for hi < len(d.Rows) && d.Rows[hi].Observer == d.Rows[lo].Observer {
			hi++
		}
		sub := &PosteriorDelta{Decay: d.Decay, Rows: d.Rows[lo:hi]}
		if err := lookup(d.Rows[lo].Observer).ApplyDelta(sub); err != nil {
			return fmt.Errorf("trust: apply posterior delta for observer %s: %w", d.Rows[lo].Observer, err)
		}
		lo = hi
	}
	return nil
}

// ExportPosterior drains every listed observer's pending evidence (via
// lookup and Beta.ExportDelta) into one canonical posterior delta:
// observers are visited in sorted order and each estimator's rows are
// already subject-sorted, so concatenation preserves the canonical row
// order. Returns nil when nothing is pending anywhere — the export half of
// gossip.Book.
func ExportPosterior(observers []PeerID, lookup func(PeerID) *Beta) *PosteriorDelta {
	sorted := make([]PeerID, len(observers))
	copy(sorted, observers)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var out *PosteriorDelta
	for _, o := range sorted {
		d := lookup(o).ExportDelta(o)
		if d == nil {
			continue
		}
		if out == nil {
			out = d
			continue
		}
		out.Rows = append(out.Rows, d.Rows...)
	}
	return out
}

// dense posterior wire format: 8 bytes decay (IEEE 754 bits, big endian),
// uvarint row count, then per row uvarint-length-prefixed Observer and
// Subject, 8 bytes Coop, 8 bytes Defect, uvarint Obs. Canonical: decoding
// enforces strictly ascending keys, finite non-negative masses, Obs ≥ 1 and a
// decay in (0, 1], so any successfully decoded delta re-encodes
// byte-identically. The columnar alternative lives in posterior_codec.go;
// both share this kind, told apart by the first byte (≥ 0x40 ⇒ columnar).

// EncodedSize implements EvidenceDelta.
func (d *PosteriorDelta) EncodedSize() int {
	if d.Codec == PosteriorColumnar {
		return d.columnarSize()
	}
	n := 8 + UvarintLen(uint64(len(d.Rows)))
	for _, r := range d.Rows {
		n += UvarintLen(uint64(len(r.Observer))) + len(r.Observer)
		n += UvarintLen(uint64(len(r.Subject))) + len(r.Subject)
		n += 16 + UvarintLen(r.Obs)
	}
	return n
}

// Encode implements EvidenceDelta.
func (d *PosteriorDelta) Encode() []byte {
	out := make([]byte, 0, d.EncodedSize())
	if d.Codec == PosteriorColumnar {
		return d.appendColumnar(out)
	}
	out = binary.BigEndian.AppendUint64(out, math.Float64bits(d.Decay))
	out = binary.AppendUvarint(out, uint64(len(d.Rows)))
	for _, r := range d.Rows {
		out = binary.AppendUvarint(out, uint64(len(r.Observer)))
		out = append(out, r.Observer...)
		out = binary.AppendUvarint(out, uint64(len(r.Subject)))
		out = append(out, r.Subject...)
		out = binary.BigEndian.AppendUint64(out, math.Float64bits(r.Coop))
		out = binary.BigEndian.AppendUint64(out, math.Float64bits(r.Defect))
		out = binary.AppendUvarint(out, r.Obs)
	}
	return out
}

func decodePosteriorDelta(data []byte) (EvidenceDelta, error) {
	if len(data) > 0 && data[0] == columnarMagic {
		return decodePosteriorColumnar(data)
	}
	if len(data) < 8 {
		return nil, fmt.Errorf("trust: posterior delta truncated before decay")
	}
	decay := math.Float64frombits(binary.BigEndian.Uint64(data))
	if math.IsNaN(decay) || decay <= 0 || decay > 1 {
		return nil, fmt.Errorf("trust: posterior delta decay %v outside (0, 1]", decay)
	}
	data = data[8:]
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("trust: posterior delta truncated before row count")
	}
	data = data[n:]
	// Each row costs at least 2 length bytes + 16 mass bytes + 1 obs byte.
	if count > uint64(len(data)/19+1) {
		return nil, fmt.Errorf("trust: posterior delta claims %d rows in %d bytes", count, len(data))
	}
	d := &PosteriorDelta{Decay: decay, Rows: make([]PosteriorRow, 0, count)}
	readID := func(what string) (PeerID, error) {
		l, n := binary.Uvarint(data)
		if n <= 0 || l > uint64(len(data)-n) {
			return "", fmt.Errorf("trust: posterior delta truncated in %s", what)
		}
		id := PeerID(data[n : n+int(l)])
		data = data[n+int(l):]
		return id, nil
	}
	for i := uint64(0); i < count; i++ {
		var r PosteriorRow
		var err error
		if r.Observer, err = readID("observer"); err != nil {
			return nil, err
		}
		if r.Subject, err = readID("subject"); err != nil {
			return nil, err
		}
		if len(data) < 16 {
			return nil, fmt.Errorf("trust: posterior delta truncated in masses")
		}
		r.Coop = math.Float64frombits(binary.BigEndian.Uint64(data))
		r.Defect = math.Float64frombits(binary.BigEndian.Uint64(data[8:]))
		data = data[16:]
		obs, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("trust: posterior delta truncated in observation count")
		}
		data = data[n:]
		r.Obs = obs
		if r.Obs == 0 {
			return nil, fmt.Errorf("trust: posterior row %d has no observations", i)
		}
		if math.IsNaN(r.Coop) || math.IsInf(r.Coop, 0) || r.Coop < 0 ||
			math.IsNaN(r.Defect) || math.IsInf(r.Defect, 0) || r.Defect < 0 {
			return nil, fmt.Errorf("trust: posterior row %d has non-finite or negative mass", i)
		}
		if len(d.Rows) > 0 && !lessKey(d.Rows[len(d.Rows)-1].key(), r.key()) {
			return nil, fmt.Errorf("trust: posterior rows not strictly ascending at %d", i)
		}
		d.Rows = append(d.Rows, r)
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("trust: %d trailing bytes after posterior delta", len(data))
	}
	return d, nil
}

// UvarintLen is the encoded size of v as a binary.AppendUvarint varint —
// shared by every delta codec's EncodedSize accounting.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

func init() {
	RegisterEvidenceKind(EvidencePosterior, decodePosteriorDelta)
}
