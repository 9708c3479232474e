package eval

import (
	"strings"
	"testing"

	"trustcoop/internal/testutil"
)

// goldenRuns are the pinned quick renderings at seed 77: every experiment
// with default flags, and every gossip-aware experiment with a gossiping,
// compressed-posterior cell spec (the redundant double ring, so relays and
// dedup are on the path too).
var goldenRuns = []struct {
	file string
	ids  []string // nil means IDs()
	rc   RunConfig
}{
	{"testdata/golden_quick_seed77.txt", nil, RunConfig{Seed: 77, Quick: true}},
	{"testdata/golden_quick_seed77_gossip.txt", []string{"E2", "E3", "E6", "E11", "E12", "E13"},
		RunConfig{Seed: 77, Quick: true, Gossip: "4:ring2", Evidence: "posterior+columnar"}},
}

// TestGoldenQuickTables pins the quick tables against committed golden
// renderings. This is the cross-change determinism anchor the in-process
// invariance tests cannot provide: a change to the simulator's event queue,
// the engine, the evidence plane or the experiment plumbing that shifts any
// execution order or any rendered cell shows up here as a one-line diff
// against the file recorded before the change, not as a silent drift.
//
// Regenerate deliberately (and say so in the change) with:
//
//	go test ./internal/eval/ -run TestGoldenQuickTables -update
func TestGoldenQuickTables(t *testing.T) {
	for _, g := range goldenRuns {
		ids := g.ids
		if ids == nil {
			ids = IDs()
		}
		var sb strings.Builder
		for _, id := range ids {
			tbl, err := Run(id, g.rc)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if err := tbl.Fprint(&sb); err != nil {
				t.Fatal(err)
			}
			sb.WriteString("\n")
		}
		testutil.Golden(t, g.file, sb.String())
	}
}
