package main

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"strings"
	"testing"

	"trustcoop/internal/trust/complaints"
	"trustcoop/internal/trustd"
)

// TestLoadgenModeClosedLoop runs the full self-contained closed loop — real
// listener, real HTTP, a restart from disk — and requires zero divergence.
func TestLoadgenModeClosedLoop(t *testing.T) {
	err := run([]string{"-loadgen", "-sessions", "40", "-batch", "8", "-seed", "3", "-checkpoint-every", "64"})
	if err != nil {
		t.Fatalf("loadgen closed loop failed: %v", err)
	}
}

func TestServeModeRequiresDir(t *testing.T) {
	err := run(nil)
	if err == nil || !strings.Contains(err.Error(), "-dir") {
		t.Fatalf("serve mode without -dir returned %v, want a -dir error", err)
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-no-such-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestServeDrainsAndClosesOnCancel stands in for SIGTERM: serve acks a batch
// over real HTTP, its context is cancelled, and it must shut down cleanly
// and close the server, so a reopen of the directory recovers the batch
// with no torn bytes.
func TestServeDrainsAndClosesOnCancel(t *testing.T) {
	opts := trustd.Options{Dir: t.TempDir()}
	srv, err := trustd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- serve(ctx, ln, srv) }()

	batch := []complaints.Complaint{{From: "a", About: "b"}, {From: "b", About: "c"}, {From: "c", About: "a"}}
	resp, err := http.Post("http://"+ln.Addr().String()+"/v1/complaints", "application/octet-stream",
		bytes.NewReader(complaints.NewDelta(batch).Encode()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest returned %s", resp.Status)
	}
	cancel()
	if err := <-served; err != nil {
		t.Fatalf("serve after cancel returned %v, want nil", err)
	}
	if err := srv.Ingest(batch); err == nil {
		t.Fatal("serve returned without closing the server")
	}

	re, err := trustd.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	st := re.Stats()
	if st.RecoveredBatches != 1 || st.RecoveredComplaints != int64(len(batch)) || st.TornTailBytes != 0 {
		t.Fatalf("reopen recovered %d batches, %d complaints, %d torn bytes; want 1, %d, 0",
			st.RecoveredBatches, st.RecoveredComplaints, st.TornTailBytes, len(batch))
	}
}
