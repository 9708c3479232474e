package trustd

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"trustcoop/internal/testutil"
)

// metricsServer opens a server, drives deterministic traffic over every
// instrumented path (ingest, cold + warm score queries, counts, checkpoint),
// and returns it with its HTTP test server.
func metricsServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	batches := testBatches(6, 5)
	for _, b := range batches {
		if err := srv.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range batchPeers(batches) {
		for i := 0; i < 2; i++ { // first pass cold, second warm
			if _, err := srv.ScoreOf(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	resp, err := http.Get(hs.URL + "/v1/counts?peer=" + string(batchPeers(batches)[0]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return srv, hs
}

func fetchText(t *testing.T, url string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp
}

// sampleValueRe splits an exposition sample line into its series identity
// (name + label set) and its value.
var sampleValueRe = regexp.MustCompile(`^([A-Za-z_:][A-Za-z0-9_:]*(?:\{[^}]*\})?) (\S+)$`)

// normalizeExposition replaces every sample value with <v> so the golden
// pins structure — family names, HELP/TYPE text, label sets, series order —
// without pinning timing-dependent numbers.
func normalizeExposition(text string) string {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	for i, line := range lines {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if m := sampleValueRe.FindStringSubmatch(line); m != nil {
			lines[i] = m[1] + " <v>"
		}
	}
	return strings.Join(lines, "\n") + "\n"
}

// TestMetricsGolden pins the exposition's structure byte for byte: a renamed
// metric, a dropped series, or a reordered family is a contract break for
// every dashboard scraping this service, and must show up as a diff here.
// Regenerate deliberately with
//
//	go test ./internal/trustd/ -run TestMetricsGolden -update
func TestMetricsGolden(t *testing.T) {
	_, hs := metricsServer(t)
	body, resp := fetchText(t, hs.URL+"/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	got := normalizeExposition(body)
	testutil.Golden(t, filepath.Join("testdata", "metrics.golden"), got)
}

// sampleValue extracts one series' value from exposition text.
func sampleValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		m := sampleValueRe.FindStringSubmatch(line)
		if m != nil && m[1] == series {
			v, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				t.Fatalf("series %s: unparseable value %q", series, m[2])
			}
			return v
		}
	}
	t.Fatalf("series %s not found in exposition", series)
	return 0
}

// TestMetricsStatsParity: the JSON and Prometheus surfaces report the same
// accounting. Counters must agree exactly; uptime only grows between the two
// fetches.
func TestMetricsStatsParity(t *testing.T) {
	_, hs := metricsServer(t)
	statsBody, _ := fetchText(t, hs.URL+"/v1/stats")
	var st Stats
	if err := json.Unmarshal([]byte(statsBody), &st); err != nil {
		t.Fatal(err)
	}
	metricsBody, _ := fetchText(t, hs.URL+"/metrics")

	exact := []struct {
		series string
		want   int64
	}{
		{"trustd_store_generation", int64(st.Generation)},
		{"trustd_ingested_batches_total", st.IngestedBatches},
		{"trustd_ingested_complaints_total", st.IngestedComplaints},
		{"trustd_wal_appends_total", st.WALAppends},
		{"trustd_wal_bytes_total", st.WALBytes},
		{"trustd_wal_fsyncs_total", st.WALFsyncs},
		{"trustd_checkpoints_total", st.Checkpoints},
		{"trustd_snapshot_cache_hits_total", st.CacheHits},
		{"trustd_snapshot_cache_misses_total", st.CacheMisses},
	}
	for _, e := range exact {
		if got := sampleValue(t, metricsBody, e.series); got != float64(e.want) {
			t.Errorf("%s = %g, /v1/stats says %d", e.series, got, e.want)
		}
	}
	if st.WALAppends != st.IngestedBatches {
		t.Errorf("wal_appends %d != ingested_batches %d (every acked batch is one record)", st.WALAppends, st.IngestedBatches)
	}
	if st.UptimeSeconds < 0 {
		t.Errorf("stats uptime %g < 0", st.UptimeSeconds)
	}
	if up := sampleValue(t, metricsBody, "trustd_uptime_seconds"); up < st.UptimeSeconds {
		t.Errorf("metrics uptime %g < earlier stats uptime %g (must be monotone)", up, st.UptimeSeconds)
	}
	hits := sampleValue(t, metricsBody, "trustd_snapshot_cache_hits_total")
	misses := sampleValue(t, metricsBody, "trustd_snapshot_cache_misses_total")
	wantRate := hits / (hits + misses)
	if rate := sampleValue(t, metricsBody, "trustd_snapshot_cache_hit_rate"); rate != wantRate {
		t.Errorf("hit rate %g, want %g", rate, wantRate)
	}
}

// TestMetricsLatencySummariesPopulated: after real traffic every summary the
// traffic exercised carries observations with internally consistent
// quantiles, and the always-exported async series exist with value 0 on a
// synchronous backend.
func TestMetricsLatencySummariesPopulated(t *testing.T) {
	_, hs := metricsServer(t)
	body, _ := fetchText(t, hs.URL+"/metrics")
	summaries := []struct {
		name   string
		labels string // `path="cold",` or empty
	}{
		{"trustd_ingest_latency_ns", ""},
		{"trustd_query_latency_ns", `path="cold",`},
		{"trustd_query_latency_ns", `path="warm",`},
		{"trustd_query_latency_ns", `path="counts",`},
		{"trustd_checkpoint_duration_ns", ""},
		{"trustd_checkpoint_cut_duration_ns", ""},
	}
	for _, s := range summaries {
		countSeries := s.name + "_count"
		if s.labels != "" {
			countSeries += "{" + strings.TrimSuffix(s.labels, ",") + "}"
		}
		if n := sampleValue(t, body, countSeries); n < 1 {
			t.Errorf("%s = %g, want >= 1 after the traffic above", countSeries, n)
		}
		p50 := sampleValue(t, body, fmt.Sprintf(`%s{%squantile="0.5"}`, s.name, s.labels))
		p99 := sampleValue(t, body, fmt.Sprintf(`%s{%squantile="0.99"}`, s.name, s.labels))
		p999 := sampleValue(t, body, fmt.Sprintf(`%s{%squantile="0.999"}`, s.name, s.labels))
		if p50 <= 0 || p50 > p99 || p99 > p999 {
			t.Errorf("%s{%s} quantiles inconsistent: p50=%g p99=%g p999=%g", s.name, s.labels, p50, p99, p999)
		}
	}
	for _, series := range []string{"trustd_async_reads_total", "trustd_async_stale_reads_total"} {
		if v := sampleValue(t, body, series); v != 0 {
			t.Errorf("%s = %g on a synchronous backend, want 0", series, v)
		}
	}
	families := MetricFamilies(body)
	have := map[string]bool{}
	for _, f := range families {
		have[f] = true
	}
	for _, want := range RequiredMetricFamilies {
		if !have[want] {
			t.Errorf("required family %s missing from exposition", want)
		}
	}
}

// TestMetricsHammer drives ingest, queries, counts, checkpoints and /metrics
// scrapes from concurrent goroutines — run under -race, a torn Distribution
// or an unguarded counter fails here by name.
func TestMetricsHammer(t *testing.T) {
	srv, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	batches := testBatches(64, 8)
	peers := batchPeers(batches)

	var wg sync.WaitGroup
	wg.Add(4)
	go func() { // writer
		defer wg.Done()
		for _, b := range batches {
			if err := srv.Ingest(b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // score reader: exercises both the cold and warm paths
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if _, err := srv.ScoreOf(peers[i%len(peers)]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // checkpointer
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if err := srv.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // scraper: snapshots the distributions while they mutate
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := srv.WriteMetrics(&sb); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	var sb strings.Builder
	if err := srv.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	if got := sampleValue(t, body, "trustd_ingest_latency_ns_count"); got != float64(len(batches)) {
		t.Errorf("ingest latency count %g, want %d", got, len(batches))
	}
	cold := sampleValue(t, body, `trustd_query_latency_ns_count{path="cold"}`)
	warm := sampleValue(t, body, `trustd_query_latency_ns_count{path="warm"}`)
	if cold+warm != 200 {
		t.Errorf("query latency counts cold=%g warm=%g, want 200 total", cold, warm)
	}
}

// TestMetricFamiliesParser covers the shared parser on a hand-built body.
func TestMetricFamiliesParser(t *testing.T) {
	text := "# HELP b x\n# TYPE b counter\nb 1\n# HELP a y\n# TYPE a gauge\na 2\n# TYPE a gauge\n"
	got := MetricFamilies(text)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("MetricFamilies = %v, want [a b]", got)
	}
}
