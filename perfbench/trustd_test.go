package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
	"trustcoop/internal/trustd"
)

// TestClientCountsFailures pins the trustd workloads' failure accounting: a
// 500 reply, a short ack and a score that differs from the reference in one
// bit each count as a failed operation, and a correct reply does not.
func TestClientCountsFailures(t *testing.T) {
	batch := []complaints.Complaint{{From: "a", About: "b"}, {From: "c", About: "b"}}
	ref, err := newReference([][]complaints.Complaint{batch})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.score("b")
	if err != nil {
		t.Fatal(err)
	}
	divergent := want
	divergent.Product = math.Nextafter(want.Product, math.Inf(1))

	for _, tc := range []struct {
		name    string
		handler http.HandlerFunc
		ops     []op
		verify  bool
		failed  int64
	}{
		{
			name:    "500 on score",
			handler: func(w http.ResponseWriter, r *http.Request) { http.Error(w, "boom", http.StatusInternalServerError) },
			ops:     []op{scoreOp("b")},
			failed:  1,
		},
		{
			name:    "500 on ingest",
			handler: func(w http.ResponseWriter, r *http.Request) { http.Error(w, "boom", http.StatusInternalServerError) },
			ops:     []op{ingestOp(batch)},
			failed:  1,
		},
		{
			name: "short ack",
			handler: func(w http.ResponseWriter, r *http.Request) {
				json.NewEncoder(w).Encode(map[string]int{"applied": len(batch) - 1})
			},
			ops:    []op{ingestOp(batch)},
			failed: 1,
		},
		{
			name: "full ack",
			handler: func(w http.ResponseWriter, r *http.Request) {
				json.NewEncoder(w).Encode(map[string]int{"applied": len(batch)})
			},
			ops: []op{ingestOp(batch)},
		},
		{
			name:    "divergent score",
			handler: scoreHandler(divergent),
			verify:  true,
			failed:  1,
		},
		{
			name:    "correct score",
			handler: scoreHandler(want),
			verify:  true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(tc.handler)
			defer srv.Close()
			rep := newReport()
			if tc.verify {
				verify(srv.URL, ref, []trust.PeerID{"b"}, rep, "test")
				if rep.attempted != 1 || rep.failed != tc.failed {
					t.Fatalf("verify: attempted %d, failed %d; want 1, %d (%v)", rep.attempted, rep.failed, tc.failed, rep.failures)
				}
				return
			}
			c := newLoadClient(srv.URL)
			defer c.close()
			c.run(tc.ops, len(tc.ops), time.Time{})
			if c.attempted != int64(len(tc.ops)) || c.failed != tc.failed {
				t.Fatalf("attempted %d, failed %d; want %d, %d (%v)", c.attempted, c.failed, len(tc.ops), tc.failed, c.firstErr)
			}
			if tc.failed > 0 && len(c.acked) != 0 {
				t.Fatalf("a failed ingest was counted as acked")
			}
		})
	}
}

func scoreHandler(sc trustd.Score) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(sc)
	}
}
