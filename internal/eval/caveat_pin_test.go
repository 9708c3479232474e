package eval

import (
	"testing"

	"trustcoop/internal/trust"
	"trustcoop/internal/trust/gossip"
)

// TestCellCaveatsUnchangedByAggregateMaintenance pins the exact composed
// caveat strings after the O(1) trust-read refactor. The ROADMAP rule is
// that every *information-structure* change must be visible in the table
// title — and the incremental product aggregate and the write-generation
// average cache are deliberately not one: they serve bit-identical values
// to the scans they replace (the aggregate≡scan property test proves it),
// so no new caveat may appear. If someone later weakens the equivalence
// (approximate aggregates, stale-tolerant caches), this test forces them to
// surface it in the titles and update these pins consciously.
func TestCellCaveatsUnchangedByAggregateMaintenance(t *testing.T) {
	cases := []struct {
		name string
		c    cellCaveats
		want string
	}{
		{"none", cellCaveats{}, "E2 title"},
		{
			"shards",
			cellCaveats{Shards: 4},
			"E2 title (cells sharded ×4: trust learned per shard)",
		},
		{
			"shards+gossip",
			cellCaveats{Shards: 4, Gossip: gossip.Config{Period: 16}},
			"E2 title (cells sharded ×4: trust learned per shard; complaint gossip every 16 sessions over mesh)",
		},
		{
			"posterior-gossip",
			cellCaveats{Shards: 2, Gossip: gossip.Config{Period: 8}, Evidence: trust.EvidencePosterior},
			"E2 title (cells sharded ×2: trust learned per shard; posterior gossip every 8 sessions over mesh)",
		},
	}
	for _, tc := range cases {
		if got := tc.c.annotate("E2 title"); got != tc.want {
			t.Errorf("%s: caveat drifted:\n got  %q\n want %q", tc.name, got, tc.want)
		}
	}
}
