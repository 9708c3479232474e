package trustcoop

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// parallelSpeedupFields are the artifact fields that measure CPU parallelism:
// serial wall clock over the widest worker/engine pool's. On a host with one
// CPU there is no parallelism to win, so a value above 1.0 can only be noise
// or a broken measurement loop — the harness that wrote these artifacts
// pinned them to exactly 1.0 there.
// Algorithmic ratios (speedup_batch_vs_single, speedup_vs_memory,
// speedup_aggregate_vs_scan) legitimately exceed 1.0 on any host — they
// compare code paths, not core counts — and are deliberately absent here;
// assessor_path's ratio gets its own internal-consistency test below instead.
var parallelSpeedupFields = map[string]bool{
	"speedup_numcpu_vs_1": true,
	"speedup_vs_1_engine": true,
}

// TestBenchArtifactsNoPhantomParallelSpeedup walks every committed
// BENCH_PR*.json and fails if an artifact generated on a 1-CPU host claims a
// parallel speedup above 1.0. Such a claim has twice almost slipped into a
// perf PR's headline numbers from a worker pool warming caches for the
// "parallel" rep; this pins the invariant so CI catches the next one.
func TestBenchArtifactsNoPhantomParallelSpeedup(t *testing.T) {
	paths, err := filepath.Glob("BENCH_PR*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no BENCH_PR*.json artifacts found; run from the repo root")
	}
	const tolerance = 1.0 + 1e-9
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var artifact map[string]any
		if err := json.Unmarshal(data, &artifact); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		numCPU, ok := artifact["num_cpu"].(float64)
		if !ok {
			t.Errorf("%s: missing num_cpu field", path)
			continue
		}
		if int(numCPU) != 1 {
			continue // real parallelism available; speedups above 1.0 are the point
		}
		walkSpeedups(artifact, path, func(fieldPath string, v float64) {
			if v > tolerance {
				t.Errorf("%s: %s = %v on a 1-CPU host; parallel speedup above 1.0 is phantom", path, fieldPath, v)
			}
		})
	}
}

// TestBenchArtifactsAssessorPathConsistent validates the assessor_path
// section of every committed artifact that has one (PR 7+): both timed paths
// must be positive, the recorded speedup must equal scan/aggregate (the two
// numbers it claims to summarise), and at populations of 1e5 the aggregate
// must beat the scan by at least 10× — the PR's acceptance floor, set far
// below the measured ratio (thousands) so host noise can't flake it but a
// silently re-introduced O(N) read cannot pass.
func TestBenchArtifactsAssessorPathConsistent(t *testing.T) {
	paths, err := filepath.Glob("BENCH_PR*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no BENCH_PR*.json artifacts found; run from the repo root")
	}
	sectionSeen := false
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var artifact struct {
			AssessorPath []struct {
				Backend                string  `json:"backend"`
				Population             int     `json:"population"`
				ScanNsPerDecision      float64 `json:"scan_ns_per_decision"`
				AggregateNsPerDecision float64 `json:"aggregate_ns_per_decision"`
				SpeedupAggregateVsScan float64 `json:"speedup_aggregate_vs_scan"`
			} `json:"assessor_path"`
		}
		if err := json.Unmarshal(data, &artifact); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, row := range artifact.AssessorPath {
			sectionSeen = true
			id := fmt.Sprintf("%s: assessor_path %s pop=%d", path, row.Backend, row.Population)
			if row.ScanNsPerDecision <= 0 || row.AggregateNsPerDecision <= 0 {
				t.Errorf("%s: non-positive timing (scan %v, aggregate %v)", id, row.ScanNsPerDecision, row.AggregateNsPerDecision)
				continue
			}
			want := row.ScanNsPerDecision / row.AggregateNsPerDecision
			if diff := row.SpeedupAggregateVsScan - want; diff > 1e-6 || diff < -1e-6 {
				t.Errorf("%s: speedup_aggregate_vs_scan = %v, but scan/aggregate = %v", id, row.SpeedupAggregateVsScan, want)
			}
			if row.Population >= 100_000 && row.SpeedupAggregateVsScan < 10 {
				t.Errorf("%s: speedup %v below the 10x acceptance floor", id, row.SpeedupAggregateVsScan)
			}
		}
	}
	if !sectionSeen {
		t.Error("no artifact carries an assessor_path section; BENCH_PR7.json should")
	}
}

// TestBenchArtifactsLatencyDistributionsConsistent walks every committed
// artifact for latency-distribution objects (PR 9: any object carrying a
// p50_ns field) and pins their internal ordering: count positive,
// min ≤ p50 ≤ p95 ≤ p99 ≤ p999 ≤ max, and mean within [min, max]. A
// violation means the Distribution's bucket walk or its moment merge broke —
// numbers a dashboard would happily plot without noticing.
func TestBenchArtifactsLatencyDistributionsConsistent(t *testing.T) {
	paths, err := filepath.Glob("BENCH_PR*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no BENCH_PR*.json artifacts found; run from the repo root")
	}
	distsSeen := 0
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var artifact map[string]any
		if err := json.Unmarshal(data, &artifact); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		walkLatencyDists(artifact, path, func(fieldPath string, d map[string]any) {
			distsSeen++
			f := func(key string) float64 {
				v, _ := d[key].(float64)
				return v
			}
			if f("count") < 1 {
				t.Errorf("%s: %s: count = %v, want >= 1 (empty distributions are omitted entirely)", path, fieldPath, d["count"])
				return
			}
			quantiles := []struct {
				name string
				v    float64
			}{
				{"min_ns", f("min_ns")},
				{"p50_ns", f("p50_ns")},
				{"p95_ns", f("p95_ns")},
				{"p99_ns", f("p99_ns")},
				{"p999_ns", f("p999_ns")},
				{"max_ns", f("max_ns")},
			}
			for i := 1; i < len(quantiles); i++ {
				lo, hi := quantiles[i-1], quantiles[i]
				if lo.v > hi.v {
					t.Errorf("%s: %s: %s (%v) > %s (%v); quantiles must be monotone",
						path, fieldPath, lo.name, lo.v, hi.name, hi.v)
				}
			}
			if mean := f("mean_ns"); mean < f("min_ns") || mean > f("max_ns") {
				t.Errorf("%s: %s: mean_ns %v outside [min %v, max %v]",
					path, fieldPath, mean, f("min_ns"), f("max_ns"))
			}
			if std := f("std_ns"); std < 0 {
				t.Errorf("%s: %s: std_ns = %v, want >= 0", path, fieldPath, std)
			}
		})
	}
	if distsSeen == 0 {
		t.Error("no artifact carries latency distributions; BENCH_PR9.json should")
	}
}

// TestBenchArtifactsEvidenceCodecCompression validates the evidence_codec
// section of every committed artifact that has one (PR 10+): the dense
// reference row leads, every recorded compression_ratio_vs_dense equals the
// dense row's bytes_per_session over its own (the two numbers it claims to
// summarise), and the lossless columnar row clears the PR 10 acceptance
// floor — at least 2× fewer posterior bytes per session than the dense PR 5
// wire on the same reference cell. A silently fattened columnar encoding
// (or a section that quietly stopped running) fails here, not in a
// dashboard six PRs later.
func TestBenchArtifactsEvidenceCodecCompression(t *testing.T) {
	paths, err := filepath.Glob("BENCH_PR*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no BENCH_PR*.json artifacts found; run from the repo root")
	}
	sectionSeen := false
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var artifact struct {
			EvidenceCodec struct {
				Sessions int `json:"sessions"`
				Modes    []struct {
					Policy                  string  `json:"policy"`
					DeltaBytes              int     `json:"delta_bytes"`
					BytesPerSession         float64 `json:"bytes_per_session"`
					CompressionRatioVsDense float64 `json:"compression_ratio_vs_dense"`
				} `json:"modes"`
			} `json:"evidence_codec"`
		}
		if err := json.Unmarshal(data, &artifact); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		modes := artifact.EvidenceCodec.Modes
		if len(modes) == 0 {
			continue
		}
		sectionSeen = true
		if modes[0].Policy != "dense" {
			t.Errorf("%s: evidence_codec modes[0] = %q, want the dense reference first", path, modes[0].Policy)
			continue
		}
		dense := modes[0].BytesPerSession
		if dense <= 0 {
			t.Errorf("%s: dense bytes_per_session = %v, want > 0", path, dense)
			continue
		}
		columnarSeen := false
		for _, m := range modes {
			id := fmt.Sprintf("%s: evidence_codec %s", path, m.Policy)
			if m.DeltaBytes <= 0 {
				t.Errorf("%s: delta_bytes = %d, want > 0", id, m.DeltaBytes)
			}
			if m.BytesPerSession > 0 {
				want := dense / m.BytesPerSession
				if diff := m.CompressionRatioVsDense - want; diff > 1e-6 || diff < -1e-6 {
					t.Errorf("%s: compression_ratio_vs_dense = %v, but dense/self = %v", id, m.CompressionRatioVsDense, want)
				}
			}
			if m.Policy == "columnar" {
				columnarSeen = true
				if m.CompressionRatioVsDense < 2 {
					t.Errorf("%s: lossless ratio %v below the 2x acceptance floor (dense %v, columnar %v B/session)",
						id, m.CompressionRatioVsDense, dense, m.BytesPerSession)
				}
			}
		}
		if !columnarSeen {
			t.Errorf("%s: evidence_codec has no lossless columnar row; the 2x floor is unguarded", path)
		}
	}
	if !sectionSeen {
		t.Error("no artifact carries an evidence_codec section; BENCH_PR10.json should")
	}
}

// walkLatencyDists visits every latency-distribution object — identified by
// the presence of a p50_ns key — in a decoded JSON tree.
func walkLatencyDists(node any, path string, visit func(fieldPath string, d map[string]any)) {
	switch n := node.(type) {
	case map[string]any:
		if _, ok := n["p50_ns"]; ok {
			visit(path, n)
			return
		}
		for k, v := range n {
			walkLatencyDists(v, path+"."+k, visit)
		}
	case []any:
		for i, v := range n {
			walkLatencyDists(v, fmt.Sprintf("%s[%d]", path, i), visit)
		}
	}
}

// walkSpeedups visits every parallel-speedup field in a decoded JSON tree.
func walkSpeedups(node any, path string, visit func(fieldPath string, v float64)) {
	switch n := node.(type) {
	case map[string]any:
		for k, v := range n {
			p := path + "." + k
			if parallelSpeedupFields[k] {
				if f, ok := v.(float64); ok {
					visit(p, f)
				}
			}
			walkSpeedups(v, p, visit)
		}
	case []any:
		for i, v := range n {
			walkSpeedups(v, fmt.Sprintf("%s[%d]", path, i), visit)
		}
	}
}
