// Package benchutil shares the complaint-store benchmark setup between
// cmd/bench and the repository's bench_test.go, so the JSON perf snapshots
// and the go-test benchmarks measure the same steady state.
package benchutil

import (
	"fmt"
	"strings"

	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
)

// StorePeers builds the benchmark population ("peer-0000", …).
func StorePeers(n int) []trust.PeerID {
	ids := make([]trust.PeerID, n)
	for i := range ids {
		ids[i] = trust.PeerID(fmt.Sprintf("peer-%04d", i))
	}
	return ids
}

// OpenStore builds a store for one benchmark run, pre-populated with one
// complaint per peer so the steady-state maps are warm and allocs/op
// measures the hot path, not initial growth. Async backends drain in
// batches of 32.
func OpenStore(spec string, ids []trust.PeerID) (complaints.Store, error) {
	cfg := complaints.BackendConfig{}
	if base, _, _ := strings.Cut(spec, ":"); base == "async" {
		cfg.BatchSize = 32
	}
	store, err := complaints.Open(spec, cfg)
	if err != nil {
		return nil, err
	}
	for i, p := range ids {
		if err := store.File(complaints.Complaint{From: p, About: ids[(i+1)%len(ids)]}); err != nil {
			return nil, err
		}
	}
	if f, ok := store.(complaints.Flusher); ok {
		if err := f.Flush(); err != nil {
			return nil, err
		}
	}
	return store, nil
}
