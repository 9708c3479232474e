package pgrid

import (
	"fmt"
	"strconv"
	"strings"

	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
)

// init makes the decentralised store available through the complaints
// backend registry (spec "pgrid", stackable as "async:pgrid"): a balanced
// grid of BackendConfig.GridPeers storage peers (default 64) built from
// BackendConfig.Seed, read with BackendConfig.Replicas replica votes.
func init() {
	complaints.Register("pgrid", func(cfg complaints.BackendConfig) (complaints.Store, error) {
		peers := cfg.GridPeers
		if peers <= 0 {
			peers = 64
		}
		g, err := New(Config{Peers: peers, Seed: cfg.Seed})
		if err != nil {
			return nil, fmt.Errorf("pgrid backend: %w", err)
		}
		return &ComplaintStore{Grid: g, Replicas: cfg.Replicas}, nil
	})
}

// ComplaintStore is the decentralised complaints.Store of the
// Aberer–Despotovic model: complaints live on the grid under two keys (one
// indexed by the accused, one by the complainer), and counts are read with
// replica voting — the median across R routed queries — to survive
// malicious storage peers.
type ComplaintStore struct {
	Grid *Grid
	// Replicas is the number of routed queries per count; 0 means 3.
	Replicas int
}

var (
	_ complaints.Store           = (*ComplaintStore)(nil)
	_ complaints.BatchFiler      = (*ComplaintStore)(nil)
	_ complaints.Flusher         = (*ComplaintStore)(nil)
	_ complaints.MutationCounter = (*ComplaintStore)(nil)
)

// Mutations implements complaints.MutationCounter via the grid's
// write-generation counter. The decentralised store cannot maintain the
// incremental product aggregate (counts live on routed replicas, read by
// voting), but it can tell an assessor when a cached population average is
// still valid: between write bursts the generation holds still and the
// trust-aware hot loop skips the O(N · route) scan entirely.
func (s *ComplaintStore) Mutations() (gen uint64, ok bool) {
	return s.Grid.Mutations(), true
}

// Flush implements complaints.Flusher as a no-op: every insert lands at its
// whole replica group before it returns, so there is never a backlog to
// settle. It is kept so callers that settle a store wholesale (market.Engine's
// FinishRun, the write-behind drain) treat the grid like any flushing store.
func (s *ComplaintStore) Flush() error { return nil }

func (s *ComplaintStore) replicas() int {
	if s.Replicas <= 0 {
		return 3
	}
	return s.Replicas
}

func (s *ComplaintStore) recvKey(p trust.PeerID) string  { return s.Grid.KeyFor("recv/" + string(p)) }
func (s *ComplaintStore) filedKey(p trust.PeerID) string { return s.Grid.KeyFor("filed/" + string(p)) }

// encodeComplaint serialises a complaint as "<len(From)>:<From>><About>".
// The decimal length prefix makes the encoding unambiguous even when a
// PeerID itself contains the '>' separator (or ':'), so a crafted ID cannot
// impersonate another peer's complaint record.
func encodeComplaint(c complaints.Complaint) string {
	return strconv.Itoa(len(c.From)) + ":" + string(c.From) + ">" + string(c.About)
}

// decodeComplaint parses encodeComplaint's format; ok is false for any
// malformed value (fabricated garbage on malicious replicas).
func decodeComplaint(v string) (from, about trust.PeerID, ok bool) {
	i := strings.IndexByte(v, ':')
	if i <= 0 {
		return "", "", false
	}
	n, err := strconv.Atoi(v[:i])
	if err != nil || n < 0 {
		return "", "", false
	}
	rest := v[i+1:]
	if len(rest) <= n || rest[n] != '>' {
		return "", "", false
	}
	return trust.PeerID(rest[:n]), trust.PeerID(rest[n+1:]), true
}

// File implements complaints.Store: the complaint is inserted under both
// index keys, once when the two are the same key (a count reads every value
// under its key, so a second copy there would count twice).
func (s *ComplaintStore) File(c complaints.Complaint) error {
	v := encodeComplaint(c)
	recv, filed := s.recvKey(c.About), s.filedKey(c.From)
	if err := s.Grid.Insert(recv, v); err != nil {
		return fmt.Errorf("file complaint: %w", err)
	}
	if filed == recv {
		return nil
	}
	if err := s.Grid.Insert(filed, v); err != nil {
		return fmt.Errorf("file complaint: %w", err)
	}
	return nil
}

// FileBatch implements complaints.BatchFiler for the decentralised store:
// the batch's insertions are grouped by grid key (each complaint inserts
// under two — its accused index and its complainer index) and each key group
// lands with one routed walk via Grid.InsertBatch, instead of the two full
// routings per complaint that repeated File calls pay. Like File, a
// complaint whose two keys are one key is inserted there once. Keys are
// processed in first-occurrence order, so the per-key value order — and
// therefore every replica's stored record — matches what the same batch
// filed one complaint at a time would leave. Every group is attempted even after a failure and
// the first error is returned (the BatchFiler contract).
func (s *ComplaintStore) FileBatch(batch []complaints.Complaint) error {
	if len(batch) == 0 {
		return nil
	}
	groups := make(map[string][]string, 2*len(batch))
	order := make([]string, 0, 2*len(batch))
	add := func(key, v string) {
		if _, seen := groups[key]; !seen {
			order = append(order, key)
		}
		groups[key] = append(groups[key], v)
	}
	for _, c := range batch {
		v := encodeComplaint(c)
		recv, filed := s.recvKey(c.About), s.filedKey(c.From)
		add(recv, v)
		if filed != recv {
			add(filed, v)
		}
	}
	var firstErr error
	for _, key := range order {
		if err := s.Grid.InsertBatch(key, groups[key]); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("file complaint batch: %w", err)
		}
	}
	return firstErr
}

// Received implements complaints.Store with replica voting. Values that do
// not parse as complaints about p are ignored, so fabricated garbage cannot
// raise the count unless it mimics the encoding exactly.
func (s *ComplaintStore) Received(p trust.PeerID) (int, error) {
	return s.Grid.MedianCount(s.recvKey(p), s.replicas(), func(values []string) int {
		n := 0
		for _, v := range values {
			if about, ok := complaintAbout(v); ok && about == p {
				n++
			}
		}
		return n
	})
}

// Filed implements complaints.Store with replica voting.
func (s *ComplaintStore) Filed(p trust.PeerID) (int, error) {
	return s.Grid.MedianCount(s.filedKey(p), s.replicas(), func(values []string) int {
		n := 0
		for _, v := range values {
			if from, ok := complaintFrom(v); ok && from == p {
				n++
			}
		}
		return n
	})
}

func complaintAbout(v string) (trust.PeerID, bool) {
	_, about, ok := decodeComplaint(v)
	return about, ok
}

func complaintFrom(v string) (trust.PeerID, bool) {
	from, _, ok := decodeComplaint(v)
	return from, ok
}
