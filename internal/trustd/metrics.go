package trustd

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"trustcoop/internal/stats"
	"trustcoop/internal/trust/complaints"
)

// The metrics plane. Every latency-bearing path of the server — ingest,
// score queries split by snapshot-cache outcome, raw counts queries, and
// checkpoints — feeds a race-safe stats.Distribution here, and GET /metrics
// exports them next to the durability counters in Prometheus text exposition
// format 0.0.4, hand-rolled so the service stays dependency-free. Summaries
// carry p50/p95/p99/p999 plus _sum and _count; counters and gauges are the
// same numbers /v1/stats serves as JSON (TestMetricsStatsParity pins that the
// two surfaces never disagree). The family list and label sets are fixed at
// compile time — series appear with value 0 rather than popping into
// existence later — which is what keeps the golden test stable and scrapes
// diffable across deployments.

// lockedDist is a Distribution behind its own mutex: writers on the hot
// paths take it for one Add, and the exporter snapshots a Clone so bucket
// walking happens outside the lock.
type lockedDist struct {
	mu sync.Mutex
	d  stats.Distribution
}

// Observe records one duration in nanoseconds.
func (l *lockedDist) Observe(d time.Duration) {
	l.mu.Lock()
	l.d.Add(float64(d.Nanoseconds()))
	l.mu.Unlock()
}

// Snapshot returns an independent copy safe to summarise without the lock.
func (l *lockedDist) Snapshot() stats.Distribution {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.d.Clone()
}

// serverMetrics is the registry: one Distribution per instrumented path.
// Counter-shaped series live on Server.stats and the WAL (they predate this
// plane); the registry only owns what needs bucketing.
type serverMetrics struct {
	start         time.Time
	ingest        lockedDist // Ingest wall time, WAL append included
	queryCold     lockedDist // ScoreOf misses: full assessor computation
	queryWarm     lockedDist // ScoreOf hits: cache lookup + read accounting
	queryCounts   lockedDist // /v1/counts raw tally reads
	checkpoint    lockedDist // whole checkpoint: cut through cleanup
	checkpointCut lockedDist // the cut alone: the time it holds Server.mu
}

// summaryQuantiles are the fixed quantile labels every summary exports.
var summaryQuantiles = []struct {
	label string
	p     float64
}{
	{"0.5", 50},
	{"0.95", 95},
	{"0.99", 99},
	{"0.999", 99.9},
}

// promWriter accumulates exposition lines; the one-method-per-type shape
// keeps the family ordering in WriteMetrics readable.
type promWriter struct {
	b strings.Builder
}

func (p *promWriter) header(name, typ, help string) {
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func (p *promWriter) counter(name, help string, v int64) {
	p.header(name, "counter", help)
	fmt.Fprintf(&p.b, "%s %d\n", name, v)
}

func (p *promWriter) gauge(name, help string, v float64) {
	p.header(name, "gauge", help)
	fmt.Fprintf(&p.b, "%s %s\n", name, formatValue(v))
}

// summary emits one summary family; labels like `path="cold"` are spliced
// into every line, empty means unlabeled. Call header once, then summary for
// each label set of the family.
func (p *promWriter) summary(name, labels string, d stats.Distribution) {
	for _, q := range summaryQuantiles {
		sep := ""
		if labels != "" {
			sep = ","
		}
		fmt.Fprintf(&p.b, "%s{%s%squantile=%q} %s\n", name, labels, sep, q.label, formatValue(d.Percentile(q.p)))
	}
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	fmt.Fprintf(&p.b, "%s_sum%s %s\n", name, suffix, formatValue(d.Sum()))
	fmt.Fprintf(&p.b, "%s_count%s %d\n", name, suffix, d.Count())
}

// asyncStats reports the write-behind pipeline's read accounting, zeros when
// the backend is not async — the series are always exported so a scrape (and
// the golden test) sees a fixed universe of names.
func (s *Server) asyncStats() complaints.AsyncStats {
	if as, ok := s.store.(interface{ Stats() complaints.AsyncStats }); ok {
		return as.Stats()
	}
	return complaints.AsyncStats{}
}

// WriteMetrics writes the full exposition. Families appear in a fixed order;
// every run exports every family.
func (s *Server) WriteMetrics(w io.Writer) error {
	st := s.Stats()
	async := s.asyncStats()
	var p promWriter

	p.gauge("trustd_uptime_seconds", "Seconds since this process opened the server.", st.UptimeSeconds)
	p.gauge("trustd_store_generation", "Applied-batch generation; the snapshot cache is keyed by it.", float64(st.Generation))

	p.counter("trustd_ingested_batches_total", "Acked complaint batches this process.", st.IngestedBatches)
	p.counter("trustd_ingested_complaints_total", "Acked complaints this process.", st.IngestedComplaints)

	p.counter("trustd_wal_appends_total", "WAL records durably appended this process.", st.WALAppends)
	p.counter("trustd_wal_bytes_total", "WAL record bytes appended this process.", st.WALBytes)
	p.counter("trustd_wal_fsyncs_total", "WAL fsync calls this process (0 unless -fsync).", st.WALFsyncs)

	p.counter("trustd_checkpoints_total", "Checkpoints written this process.", st.Checkpoints)
	p.header("trustd_checkpoint_duration_ns", "summary", "Checkpoint wall time: WAL cut, fold, atomic write, cleanup.")
	p.summary("trustd_checkpoint_duration_ns", "", s.metrics.checkpoint.Snapshot())
	p.header("trustd_checkpoint_cut_duration_ns", "summary", "Time a checkpoint's WAL cut holds the ingest mutex.")
	p.summary("trustd_checkpoint_cut_duration_ns", "", s.metrics.checkpointCut.Snapshot())

	p.counter("trustd_snapshot_cache_hits_total", "Score queries served from the generation-keyed snapshot cache.", st.CacheHits)
	p.counter("trustd_snapshot_cache_misses_total", "Score queries that recomputed through the assessor.", st.CacheMisses)
	hitRate := 0.0
	if total := st.CacheHits + st.CacheMisses; total > 0 {
		hitRate = float64(st.CacheHits) / float64(total)
	}
	p.gauge("trustd_snapshot_cache_hit_rate", "Hits over hits+misses; 0 before the first query.", hitRate)

	p.counter("trustd_async_reads_total", "Reads through the write-behind store (0 for synchronous backends).", async.Reads)
	p.counter("trustd_async_stale_reads_total", "Reads served while writes were still pending (0 for synchronous backends).", async.StaleReads)

	p.header("trustd_ingest_latency_ns", "summary", "Ingest wall time per acked batch, WAL append included.")
	p.summary("trustd_ingest_latency_ns", "", s.metrics.ingest.Snapshot())

	p.header("trustd_query_latency_ns", "summary", "Query wall time by path: cold = cache miss, warm = cache hit, counts = raw tallies.")
	p.summary("trustd_query_latency_ns", `path="cold"`, s.metrics.queryCold.Snapshot())
	p.summary("trustd_query_latency_ns", `path="warm"`, s.metrics.queryWarm.Snapshot())
	p.summary("trustd_query_latency_ns", `path="counts"`, s.metrics.queryCounts.Snapshot())

	_, err := io.WriteString(w, p.b.String())
	return err
}

// MetricFamilies parses an exposition body into its family names — shared by
// the loadgen closed loop and the tests that assert the /metrics surface is
// complete.
func MetricFamilies(text string) []string {
	seen := map[string]bool{}
	var names []string
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 3 && !seen[fields[2]] {
			seen[fields[2]] = true
			names = append(names, fields[2])
		}
	}
	sort.Strings(names)
	return names
}

// RequiredMetricFamilies is the acceptance surface: a scrape missing any of
// these is a regression, whatever else it carries.
var RequiredMetricFamilies = []string{
	"trustd_checkpoint_cut_duration_ns",
	"trustd_checkpoint_duration_ns",
	"trustd_checkpoints_total",
	"trustd_ingest_latency_ns",
	"trustd_ingested_batches_total",
	"trustd_ingested_complaints_total",
	"trustd_query_latency_ns",
	"trustd_snapshot_cache_hit_rate",
	"trustd_snapshot_cache_hits_total",
	"trustd_snapshot_cache_misses_total",
	"trustd_wal_appends_total",
	"trustd_wal_bytes_total",
	"trustd_wal_fsyncs_total",
}
