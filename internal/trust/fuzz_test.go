// Fuzzing lives in an external test package so the complaint kind's decoder
// (registered from internal/trust/complaints, which imports trust) is linked
// in and both shipped evidence kinds get hammered through one harness.
package trust_test

import (
	"bytes"
	"testing"

	"trustcoop/internal/trust"
	_ "trustcoop/internal/trust/complaints" // registers the complaints evidence kind
)

// FuzzEvidenceDeltaRoundTrip throws hostile bytes at every registered
// evidence decoder. The contract under attack is exactly what the gossip
// fabric relies on when an envelope crosses a trust boundary:
//
//   - malformed bytes error out, never panic;
//   - a successful decode is canonical: re-encoding reproduces the input
//     bytes, and decoding those again yields the same delta
//     (Decode∘Encode identity);
//   - for a kind whose delta can merge (the posterior kind, through the
//     test-side Merge), merging decoded deltas never panics, reports
//     parameter mismatches as errors, and stays associative on the
//     evidence-item count.
func FuzzEvidenceDeltaRoundTrip(f *testing.F) {
	// Valid complaint delta bytes: uvarint-length-prefixed From then About.
	f.Add([]byte{1, 'a', 1, 'b'}, uint8(0), uint8(2))
	f.Add([]byte{0, 0, 2, 'x', 'y', 1, 'z'}, uint8(0), uint8(5))
	// Valid posterior delta bytes for one row (decay 1.0).
	f.Add(append(append([]byte{0x3f, 0xf0, 0, 0, 0, 0, 0, 0, 1}, // decay 1.0, 1 row
		1, 'a', 1, 'b'), // observer "a", subject "b"
		0x3f, 0xf0, 0, 0, 0, 0, 0, 0, // coop 1.0
		0, 0, 0, 0, 0, 0, 0, 0, // defect 0.0
		1), uint8(1), uint8(9)) // obs 1
	// Valid columnar posterior bytes (PR 10): lossless, and lossy fixed
	// point at 6 fractional bits. Built through the encoder so the seeds
	// track the format.
	col := trust.NewPosteriorDelta(1, []trust.PosteriorRow{
		{Observer: "a", Subject: "b", Coop: 1, Obs: 1},
		{Observer: "a", Subject: "c", Defect: 2, Obs: 2},
		{Observer: "b", Subject: "a", Coop: 0.5, Defect: 0.25, Obs: 3},
	})
	col.Codec = trust.PosteriorColumnar
	f.Add(col.Encode(), uint8(1), uint8(4))
	col.Quantum = 6
	f.Add(col.Encode(), uint8(1), uint8(6))
	// Columnar header with reserved flag bits set — must reject.
	f.Add([]byte{0xc5, 0x40, 0x3f, 0xf0, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(1), uint8(0))
	// Garbage.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint8(1), uint8(0))
	f.Add([]byte{}, uint8(0), uint8(1))
	f.Add([]byte{':', '>', ':', '>', 0x80, 0x80, 0x80}, uint8(1), uint8(3))

	f.Fuzz(func(t *testing.T, data []byte, kindSel, split uint8) {
		kinds := trust.EvidenceKinds()
		if len(kinds) == 0 {
			t.Skip("no kinds registered")
		}
		kind := kinds[int(kindSel)%len(kinds)]
		d, err := trust.DecodeEvidence(kind, data)
		if err != nil {
			return // malformed input rejected cleanly — the property held
		}
		enc := d.Encode()
		if d.EncodedSize() != len(enc) {
			t.Fatalf("%s: EncodedSize %d != len(Encode) %d", kind, d.EncodedSize(), len(enc))
		}
		// Decode∘Encode identity on the encoder's image: whatever was
		// decoded (hostile inputs may use non-minimal varints, so the raw
		// bytes need not be canonical), re-encoding is a fixed point.
		d2, err := trust.DecodeEvidence(kind, enc)
		if err != nil {
			t.Fatalf("%s: re-decode of own encoding failed: %v", kind, err)
		}
		if !bytes.Equal(d2.Encode(), enc) {
			t.Fatalf("%s: Decode∘Encode is not the identity", kind)
		}
		if d2.Items() != d.Items() || d2.Kind() != d.Kind() {
			t.Fatalf("%s: round trip changed the delta: %d items vs %d", kind, d2.Items(), d.Items())
		}

		// Merge associativity spot-check on three clones of the decoded
		// delta: ((d⊕d)⊕d) and (d⊕(d⊕d)) must agree on kind and item count
		// however the merges nest, and never panic.
		type merger interface {
			trust.EvidenceDelta
			Merge(trust.EvidenceDelta) error
		}
		if _, ok := d.(merger); !ok {
			return
		}
		clone := func() merger {
			c, err := trust.DecodeEvidence(kind, enc)
			if err != nil {
				t.Fatal(err)
			}
			return c.(merger)
		}
		left, mid := clone(), clone()
		if err := left.Merge(mid); err != nil {
			return // e.g. a parameter mismatch — an error, not a panic, is fine
		}
		if err := left.Merge(clone()); err != nil {
			t.Fatalf("%s: second merge failed after first succeeded: %v", kind, err)
		}
		rightInner := clone()
		if err := rightInner.Merge(clone()); err != nil {
			t.Fatalf("%s: right-nested inner merge failed: %v", kind, err)
		}
		right := clone()
		if err := right.Merge(rightInner); err != nil {
			t.Fatalf("%s: right-nested outer merge failed: %v", kind, err)
		}
		if left.Kind() != right.Kind() || left.Items() != right.Items() {
			t.Fatalf("%s: merge not associative: (a⊕b)⊕c has %d items, a⊕(b⊕c) has %d",
				kind, left.Items(), right.Items())
		}
		_ = split
	})
}
