package trustd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"time"

	"trustcoop/internal/agent"
	"trustcoop/internal/goods"
	"trustcoop/internal/market"
	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
)

// The load generator closes the loop the ISSUE's tentpole demands: the
// marketplace simulator is the traffic model. It runs a market.Engine session
// trace against a recording in-process store, replays the recorded complaint
// stream as ingest batches against a live trustd over HTTP, and then asks the
// server for every peer's trust assessment, comparing each answer bit for bit
// (math.Float64bits, not an epsilon) against a direct assessor over the
// recorded store. Zero divergences is the acceptance criterion.

// LoadgenConfig parameterises one closed-loop run.
type LoadgenConfig struct {
	// Sessions is the number of marketplace sessions to simulate.
	Sessions int
	// Seed drives the simulation; the same seed replays the same trace.
	Seed int64
	// Batch is the number of complaints per ingest batch (default 8).
	Batch int
	// Factor is the decision threshold; 0 means complaints.DefaultFactor.
	// Must match the server's.
	Factor float64
}

// loadgenHonest and loadgenCheaters split every run's agent population.
const (
	loadgenHonest   = 16
	loadgenCheaters = 4
)

func (c LoadgenConfig) withDefaults() LoadgenConfig {
	if c.Sessions == 0 {
		c.Sessions = 200
	}
	if c.Batch <= 0 {
		c.Batch = 8
	}
	return c
}

// LoadgenReport is the closed loop's outcome. Divergence counts of zero are
// the pass condition; the first divergence is spelled out for debugging.
type LoadgenReport struct {
	Sessions        int     `json:"sessions"`
	Complaints      int     `json:"complaints"`
	Batches         int     `json:"batches"`
	Peers           int     `json:"peers"`
	ScoreDivergence int     `json:"score_divergence"`
	FirstDivergence string  `json:"first_divergence,omitempty"`
	IngestSeconds   float64 `json:"ingest_seconds"`
	QuerySeconds    float64 `json:"query_seconds"`
	// MetricsFamilies counts the metric families /metrics exposed after the
	// run; the scrape fails the loop if any RequiredMetricFamilies entry is
	// missing, so observability regressions surface here, not in production.
	MetricsFamilies int `json:"metrics_families"`
}

// LoadgenAgents builds the run's marketplace population and its peer IDs —
// exported because the server under test must be opened over the same fixed
// population the reference assessor normalises with.
func LoadgenAgents(cfg LoadgenConfig) ([]*agent.Agent, []trust.PeerID, error) {
	cfg = cfg.withDefaults()
	agents, err := agent.NewPopulation(
		agent.PopConfig{Honest: loadgenHonest, Opportunist: loadgenCheaters, Stake: 2 * goods.Unit},
		rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, nil, err
	}
	return agents, agent.IDs(agents), nil
}

// traceStore records the exact complaint order the simulation files while
// serving every read (and every optional extension, via embedding) from a
// real MemoryStore — so after the run it is both the ingest trace and the
// uncrashed reference state.
type traceStore struct {
	*complaints.MemoryStore
	trace []complaints.Complaint
}

func (t *traceStore) File(c complaints.Complaint) error {
	t.trace = append(t.trace, c)
	return t.MemoryStore.File(c)
}

// FileBatch keeps the recording honest if anything ever routes a batch write
// at the trace store; the engine's estimators file singly.
func (t *traceStore) FileBatch(batch []complaints.Complaint) error {
	t.trace = append(t.trace, batch...)
	return t.MemoryStore.FileBatch(batch)
}

// simulateTrace runs the marketplace simulation and returns the recorded
// complaint trace store and the peer population. The same config always
// yields the same trace — the property ReplayQueries leans on.
func simulateTrace(cfg LoadgenConfig) (*traceStore, []trust.PeerID, error) {
	cfg = cfg.withDefaults()
	agents, peers, err := LoadgenAgents(cfg)
	if err != nil {
		return nil, nil, err
	}
	ts := &traceStore{MemoryStore: complaints.NewMemoryStore()}
	assessor := complaints.NewAssessor(ts, peers)
	assessor.Factor = cfg.Factor
	eng, err := market.NewEngine(market.Config{
		Seed:     cfg.Seed,
		Sessions: cfg.Sessions,
		Agents:   agents,
		Strategy: market.StrategyTrustAware,
		EstimatorOf: func(id trust.PeerID) trust.Estimator {
			return &complaints.Estimator{Assessor: assessor, Observer: id}
		},
	})
	if err != nil {
		return nil, nil, err
	}
	if _, err := eng.Run(); err != nil {
		return nil, nil, err
	}
	return ts, peers, nil
}

// RunLoadgen simulates cfg.Sessions marketplace sessions, replays the filed
// complaints against the trustd at baseURL, and verifies every served score
// against the in-process reference assessor. The server must have been
// opened with the population LoadgenAgents reports and the same Factor.
func RunLoadgen(baseURL string, cfg LoadgenConfig) (LoadgenReport, error) {
	cfg = cfg.withDefaults()
	ts, peers, err := simulateTrace(cfg)
	if err != nil {
		return LoadgenReport{}, err
	}
	rep := LoadgenReport{Sessions: cfg.Sessions, Complaints: len(ts.trace), Peers: len(peers)}
	start := time.Now()
	for off := 0; off < len(ts.trace); off += cfg.Batch {
		end := min(off+cfg.Batch, len(ts.trace))
		if err := postBatch(baseURL, ts.trace[off:end]); err != nil {
			return rep, err
		}
		rep.Batches++
	}
	if err := postEmpty(baseURL + "/v1/flush"); err != nil {
		return rep, err
	}
	rep.IngestSeconds = time.Since(start).Seconds()
	if err := compareScores(baseURL, ts, peers, cfg, &rep); err != nil {
		return rep, err
	}
	if err := scrapeMetrics(baseURL, &rep); err != nil {
		return rep, err
	}
	return rep, nil
}

// scrapeMetrics closes the observability loop: after real traffic, /metrics
// must expose every required family (ingest, query cold/warm, WAL,
// checkpoint, cache-hit series) in valid exposition text.
func scrapeMetrics(baseURL string, rep *LoadgenReport) error {
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("trustd: metrics returned %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	families := MetricFamilies(string(body))
	have := make(map[string]bool, len(families))
	for _, f := range families {
		have[f] = true
	}
	for _, want := range RequiredMetricFamilies {
		if !have[want] {
			return fmt.Errorf("trustd: /metrics is missing family %s", want)
		}
	}
	rep.MetricsFamilies = len(families)
	return nil
}

// ReplayQueries re-derives the reference state from the same config (the
// simulation is deterministic) and runs only the query-compare pass — for
// verifying a server that already holds the trace's complaints, e.g. one
// just recovered from disk.
func ReplayQueries(baseURL string, cfg LoadgenConfig) (LoadgenReport, error) {
	cfg = cfg.withDefaults()
	ts, peers, err := simulateTrace(cfg)
	if err != nil {
		return LoadgenReport{}, err
	}
	rep := LoadgenReport{Sessions: cfg.Sessions, Complaints: len(ts.trace), Peers: len(peers)}
	if err := compareScores(baseURL, ts, peers, cfg, &rep); err != nil {
		return rep, err
	}
	if err := scrapeMetrics(baseURL, &rep); err != nil {
		return rep, err
	}
	return rep, nil
}

// compareScores fetches every peer's served assessment and diffs it bit for
// bit against the reference assessor — a literal assessor, the same
// construction the server uses — over the recorded store.
func compareScores(baseURL string, ts *traceStore, peers []trust.PeerID, cfg LoadgenConfig, rep *LoadgenReport) error {
	ref := complaints.Assessor{Store: ts.MemoryStore, Factor: cfg.Factor, Population: peers}
	start := time.Now()
	for _, p := range peers {
		served, err := getScore(baseURL, p)
		if err != nil {
			return err
		}
		want, err := referenceScore(ref, ts.MemoryStore, p)
		if err != nil {
			return err
		}
		want.Generation = served.Generation // process-local, not part of the contract
		if d := diffScores(served, want); d != "" {
			rep.ScoreDivergence++
			if rep.FirstDivergence == "" {
				rep.FirstDivergence = fmt.Sprintf("peer %s: %s", p, d)
			}
		}
	}
	rep.QuerySeconds = time.Since(start).Seconds()
	return nil
}

// referenceScore computes the assessment trustd should have served, through
// the public assessor API only.
func referenceScore(ref complaints.Assessor, store complaints.Store, p trust.PeerID) (Score, error) {
	tallies, err := complaints.CountsAll(store, []trust.PeerID{p})
	if err != nil {
		return Score{}, err
	}
	prod, err := ref.Product(p)
	if err != nil {
		return Score{}, err
	}
	score, err := ref.NormalisedScore(p)
	if err != nil {
		return Score{}, err
	}
	prob, err := ref.Probability(p)
	if err != nil {
		return Score{}, err
	}
	ok, err := ref.Trustworthy(p)
	if err != nil {
		return Score{}, err
	}
	return Score{
		Peer:        p,
		Received:    tallies[0].Received,
		Filed:       tallies[0].Filed,
		Product:     prod,
		Score:       score,
		Probability: prob,
		Trustworthy: ok,
	}, nil
}

// diffScores compares two assessments bit for bit — float64 fields by their
// IEEE bit patterns, so not even a ULP of drift passes. Empty means equal.
func diffScores(got, want Score) string {
	switch {
	case got.Received != want.Received || got.Filed != want.Filed:
		return fmt.Sprintf("counts (%d,%d) != (%d,%d)", got.Received, got.Filed, want.Received, want.Filed)
	case math.Float64bits(got.Product) != math.Float64bits(want.Product):
		return fmt.Sprintf("product %v != %v", got.Product, want.Product)
	case math.Float64bits(got.Score) != math.Float64bits(want.Score):
		return fmt.Sprintf("score %v != %v", got.Score, want.Score)
	case math.Float64bits(got.Probability) != math.Float64bits(want.Probability):
		return fmt.Sprintf("probability %v != %v", got.Probability, want.Probability)
	case got.Trustworthy != want.Trustworthy:
		return fmt.Sprintf("trustworthy %v != %v", got.Trustworthy, want.Trustworthy)
	}
	return ""
}

func postBatch(baseURL string, batch []complaints.Complaint) error {
	body := complaints.NewDelta(batch).Encode()
	resp, err := http.Post(baseURL+"/v1/complaints", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("trustd: ingest returned %s", resp.Status)
	}
	var ack struct {
		Applied int `json:"applied"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return err
	}
	if ack.Applied != len(batch) {
		return fmt.Errorf("trustd: ingest acked %d of %d complaints", ack.Applied, len(batch))
	}
	return nil
}

func postEmpty(url string) error {
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("trustd: %s returned %s", url, resp.Status)
	}
	return nil
}

func getScore(baseURL string, p trust.PeerID) (Score, error) {
	resp, err := http.Get(baseURL + "/v1/score?peer=" + url.QueryEscape(string(p)))
	if err != nil {
		return Score{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Score{}, fmt.Errorf("trustd: score returned %s", resp.Status)
	}
	var sc Score
	if err := json.NewDecoder(resp.Body).Decode(&sc); err != nil {
		return Score{}, err
	}
	return sc, nil
}
