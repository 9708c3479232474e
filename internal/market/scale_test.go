package market

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"trustcoop/internal/agent"
	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
)

// The O(1) trust decision. Every trust-aware session compares a peer's
// complaint product cr·cf with the population average; the average comes
// from the store's incrementally maintained aggregate, so what a decision
// reads must not grow with the population. Two guards hold that: an exact
// count of the peers each session reads, which no host can make noisy, and
// a wall-clock ceiling per simulator event at 10⁴ agents.

// readCountStore decorates a complaint store and counts what the trust
// decisions read: one per peer whose counts a per-peer read returns, one per
// peer a bulk CountsAll returns, and the ProductAggregate calls. It forwards
// exactly the extensions the sharded store has (TestScaleReadsPerSession
// checks the set), so the assessor takes the path it takes in production.
type readCountStore struct {
	inner      complaints.Store
	peersRead  int64
	aggregates int64
}

func init() {
	complaints.RegisterDecorator("readcount", func(cfg complaints.BackendConfig) (complaints.Store, error) {
		inner := cfg.Inner
		cfg.Inner = ""
		store, err := complaints.Open(inner, cfg)
		if err != nil {
			return nil, err
		}
		return &readCountStore{inner: store}, nil
	})
}

func (s *readCountStore) File(c complaints.Complaint) error { return s.inner.File(c) }

func (s *readCountStore) FileBatch(batch []complaints.Complaint) error {
	return complaints.FileAll(s.inner, batch)
}

func (s *readCountStore) LoadTallies(peers []trust.PeerID, tallies []complaints.Tally) error {
	return complaints.LoadAll(s.inner, peers, tallies)
}

func (s *readCountStore) Received(p trust.PeerID) (int, error) {
	s.peersRead++
	return s.inner.Received(p)
}

func (s *readCountStore) Filed(p trust.PeerID) (int, error) {
	s.peersRead++
	return s.inner.Filed(p)
}

func (s *readCountStore) Counts(p trust.PeerID) (int, int, error) {
	s.peersRead++
	return s.inner.(complaints.Counter).Counts(p)
}

func (s *readCountStore) CountsAll(peers []trust.PeerID) ([]complaints.Tally, error) {
	s.peersRead += int64(len(peers))
	return complaints.CountsAll(s.inner, peers)
}

func (s *readCountStore) ProductAggregate() (int64, int, bool, error) {
	s.aggregates++
	return s.inner.(complaints.Aggregator).ProductAggregate()
}

// storeExtensions names the optional complaints.Store extensions s has.
func storeExtensions(s complaints.Store) []string {
	var out []string
	for name, has := range map[string]bool{
		"Counter":         is[complaints.Counter](s),
		"BatchFiler":      is[complaints.BatchFiler](s),
		"Snapshotter":     is[complaints.Snapshotter](s),
		"Flusher":         is[complaints.Flusher](s),
		"Aggregator":      is[complaints.Aggregator](s),
		"MutationCounter": is[complaints.MutationCounter](s),
		"ReadAccounter":   is[complaints.ReadAccounter](s),
		"TallyLoader":     is[complaints.TallyLoader](s),
	} {
		if has {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out
}

func is[T any](v any) bool {
	_, ok := v.(T)
	return ok
}

// scaleConfig is one trust-aware engine at the given population, four in
// five agents honest and the rest opportunists, every decision read from the
// repStore backend ("" keeps each agent's private Beta estimator).
func scaleConfig(tb testing.TB, agents, sessions int, repStore string) Config {
	tb.Helper()
	pop, err := agent.NewPopulation(agent.PopConfig{Honest: agents - agents/5, Opportunist: agents / 5},
		rand.New(rand.NewSource(42)))
	if err != nil {
		tb.Fatal(err)
	}
	return Config{
		Seed:        42,
		Sessions:    sessions,
		Agents:      pop,
		Concurrency: 256,
		Strategy:    StrategyTrustAware,
		RepStore:    repStore,
	}
}

// maxPeersReadPerSession bounds the peers a trust-aware session reads from
// the complaint store. A session makes two trust estimates (each side of the
// exchange judges the other), and an estimate reads one peer's counts twice
// (its score and its confidence), so a session reads 4; a decision that
// scanned the population would read thousands.
const maxPeersReadPerSession = 8

// TestScaleReadsPerSession is the exact guard: from 10³ to 10⁵ agents a
// session reads the same handful of peers, and the population average comes
// from ProductAggregate.
func TestScaleReadsPerSession(t *testing.T) {
	const sessions = 2000
	for _, agents := range []int{1_000, 10_000, 100_000} {
		t.Run(fmt.Sprint(agents), func(t *testing.T) {
			eng, err := NewEngine(scaleConfig(t, agents, sessions, "readcount:sharded"))
			if err != nil {
				t.Fatal(err)
			}
			store := eng.RepStore().(*readCountStore)
			if got, want := storeExtensions(store), storeExtensions(store.inner); !slices.Equal(got, want) {
				t.Fatalf("decorator extensions %v, sharded store's %v", got, want)
			}
			res, err := eng.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed == 0 {
				t.Fatalf("no session completed: %+v", res)
			}
			if store.aggregates == 0 {
				t.Error("the population average never came from ProductAggregate")
			}
			perSession := float64(store.peersRead) / sessions
			t.Logf("%d agents: %.2f peers read and %.2f aggregate reads per session",
				agents, perSession, float64(store.aggregates)/sessions)
			if perSession > maxPeersReadPerSession {
				t.Errorf("%d agents: %.1f peers read per session, bound %d", agents, perSession, maxPeersReadPerSession)
			}
		})
	}
}

// scaleCeilingNsPerEvent is the wall-clock ceiling per simulator event at
// 10⁴ agents. The slower row runs ~870 ns/event (median of seven runs) on a
// 2-vCPU host, so host noise fits under ~4× that, while a decision that
// scans the population again (~95 µs/event) or a planner that retries the
// combined band after the safe band failed (15.5–17 µs/event) does not.
const scaleCeilingNsPerEvent = 3500

// BenchmarkScaleCeiling runs one trust-aware engine of 20,000 sessions at
// 10⁴ agents and concurrency 256 per estimator: each agent's private Beta,
// and every decision through the shared sharded complaint store. It reports
// ns/event and fails above scaleCeilingNsPerEvent. CI runs it by name:
//
//	go test -run '^$' -bench BenchmarkScaleCeiling -benchtime 1x ./internal/market/
func BenchmarkScaleCeiling(b *testing.B) {
	const agents, sessions = 10_000, 20_000
	for _, v := range []struct{ name, repStore string }{{"beta-private", ""}, {"complaints-sharded", "sharded"}} {
		b.Run(v.name, func(b *testing.B) {
			var elapsed time.Duration
			var events int64
			for range b.N {
				b.StopTimer()
				eng, err := NewEngine(scaleConfig(b, agents, sessions, v.repStore))
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				start := time.Now()
				if _, err := eng.Run(); err != nil {
					b.Fatal(err)
				}
				elapsed += time.Since(start)
				events += eng.EventsExecuted()
			}
			nsPerEvent := float64(elapsed.Nanoseconds()) / float64(events)
			b.ReportMetric(nsPerEvent, "ns/event")
			if nsPerEvent > scaleCeilingNsPerEvent {
				b.Fatalf("%d agents: %.0f ns/event, ceiling %d", agents, nsPerEvent, scaleCeilingNsPerEvent)
			}
		})
	}
}
