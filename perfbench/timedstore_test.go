package main

import (
	"strings"
	"testing"

	_ "trustcoop/internal/pgrid" // registers the pgrid backend
	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
)

// TestTimedStoreMirrorsExtensions pins that the timing decorator exposes
// exactly the optional extensions of every backend it can wrap. A missing
// Aggregator would silently move the traced run onto the O(N) scan path;
// an extra one would claim a capability the backend lacks.
func TestTimedStoreMirrorsExtensions(t *testing.T) {
	names := []string{"Counter", "BatchFiler", "Snapshotter", "Flusher", "Aggregator",
		"MutationCounter", "ReadAccounter", "TallyLoader", "Close"}
	var specs []string
	for _, b := range complaints.Backends() {
		if b != "timed" {
			specs = append(specs, b)
		}
	}
	specs = append(specs, "async:sharded", "async:pgrid")
	for _, spec := range specs {
		cfg := complaints.BackendConfig{Seed: 1}
		plain, err := complaints.Open(spec, cfg)
		if err != nil {
			t.Fatalf("open %s: %v", spec, err)
		}
		timed, err := complaints.Open("timed:"+spec, cfg)
		if err != nil {
			t.Fatalf("open timed:%s: %v", spec, err)
		}
		want, got := extensions(plain), extensions(timed)
		for i, name := range names {
			bit := uint(1) << i
			if want&bit != got&bit {
				t.Errorf("timed:%s: %s = %v, the backend has %v", spec, name, got&bit != 0, want&bit != 0)
			}
		}
		if _, err := timerOf(timed); err != nil {
			t.Errorf("timed:%s: %v", spec, err)
		}
		for _, c := range []interface{ Close() error }{asCloser(plain), asCloser(timed)} {
			if c != nil {
				c.Close()
			}
		}
	}
}

func asCloser(s complaints.Store) interface{ Close() error } {
	c, _ := s.(interface{ Close() error })
	return c
}

// TestTimedStoreCounts checks that writes and reads through the decorator
// are counted on their own sides and reach the wrapped store.
func TestTimedStoreCounts(t *testing.T) {
	s, err := complaints.Open("timed:sharded", complaints.BackendConfig{})
	if err != nil {
		t.Fatal(err)
	}
	batch := []complaints.Complaint{{From: "a", About: "b"}, {From: "c", About: "b"}}
	if err := complaints.FileAll(s, batch); err != nil {
		t.Fatal(err)
	}
	a := complaints.NewAssessor(s, []trust.PeerID{"a", "b", "c"})
	if _, err := a.NormalisedScore("b"); err != nil {
		t.Fatal(err)
	}
	tm, _ := timerOf(s)
	if tm.fileCalls.Load() != 1 || tm.readCalls.Load() == 0 {
		t.Fatalf("file calls %d, read calls %d; want 1 and >0", tm.fileCalls.Load(), tm.readCalls.Load())
	}
	if n, _ := s.Received("b"); n != 2 {
		t.Fatalf("Received(b) = %d through the decorator, want 2", n)
	}
}

func TestTimedStoreNeedsInner(t *testing.T) {
	if _, err := complaints.Open("timed", complaints.BackendConfig{}); err == nil || !strings.Contains(err.Error(), "inner") {
		t.Fatalf("Open(timed) = %v, want an error naming the missing inner store", err)
	}
}
