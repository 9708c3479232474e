package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestRunQuickSections drives run() end to end the way the CI smoke jobs
// do: a quick single-rep pass over every registered section except the
// scale sweep, writing the JSON report and both pprof profiles. It pins the -sections contract — requested sections
// appear in the report, omitted ones stay absent — that every section keeps
// the key structure of the newest committed artifact that recorded it, and
// that assessor_path records a real aggregate-vs-scan speedup even at quick
// sizes.
func TestRunQuickSections(t *testing.T) {
	var picked []string
	for _, s := range sections {
		if s.name != "scale" {
			picked = append(picked, s.name)
		}
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	err := run([]string{
		"-quick", "-reps", "1",
		"-sections", strings.Join(picked, ","),
		"-cpuprofile", cpu,
		"-memprofile", mem,
		"-o", out,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var keyed map[string]any
	if err := json.Unmarshal(raw, &keyed); err != nil {
		t.Fatalf("report does not decode: %v", err)
	}
	var got []string
	for k := range keyed {
		got = append(got, k)
	}
	slices.Sort(got)
	want := []string{"assessor_path", "cell_sharding", "evidence_codec", "evidence_plane",
		"generated", "go_version", "gomaxprocs", "gossip", "notes", "num_cpu", "quick",
		"reps", "seed", "store_contention"}
	if !slices.Equal(got, want) {
		t.Errorf("report keys = %v, want %v (scale unrequested)", got, want)
	}
	for k, v := range keyed {
		artifact, ref := newestArtifactWith(t, k)
		if artifact == "" {
			t.Errorf("%s: no committed BENCH_PR*.json records it", k)
			continue
		}
		for _, d := range keyShapeDiff(v, ref, k) {
			t.Errorf("key structure differs from %s: %s", artifact, d)
		}
	}

	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("report does not decode: %v", err)
	}
	for name, rows := range map[string]int{
		"assessor_path":        len(rep.AssessorPath),
		"cell_sharding.cells":  len(rep.CellSharding.Cells),
		"evidence_codec.modes": len(rep.EvidenceCodec.Modes),
		"evidence_plane.kinds": len(rep.EvidencePlane.Kinds),
		"gossip.runs":          len(rep.Gossip.Runs),
		"store_contention":     len(rep.Stores),
	} {
		if rows == 0 {
			t.Errorf("%s: no rows", name)
		}
	}
	for _, row := range rep.AssessorPath {
		if row.ScanNsPerDecision <= 0 || row.AggregateNsPerDecision <= 0 {
			t.Errorf("%s pop=%d: non-positive timings: scan=%v aggregate=%v",
				row.Backend, row.Population, row.ScanNsPerDecision, row.AggregateNsPerDecision)
		}
		if row.SpeedupAggregateVsScan <= 1 {
			t.Errorf("%s pop=%d: aggregate not faster than scan (%.2fx)",
				row.Backend, row.Population, row.SpeedupAggregateVsScan)
		}
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile not written: %v", err)
		} else if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// newestArtifactWith returns the highest-numbered committed BENCH_PR<n>.json
// at the repository root that records the top-level key, and its value.
func newestArtifactWith(t *testing.T, key string) (string, any) {
	t.Helper()
	paths, err := filepath.Glob("../../BENCH_PR*.json")
	if err != nil {
		t.Fatal(err)
	}
	pr := func(path string) int {
		n, _ := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "BENCH_PR"), ".json"))
		return n
	}
	slices.SortFunc(paths, func(a, b string) int { return pr(b) - pr(a) })
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var artifact map[string]any
		if err := json.Unmarshal(raw, &artifact); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if v, ok := artifact[key]; ok {
			return filepath.Base(path), v
		}
	}
	return "", nil
}

// keyShapeDiff compares the object key structure of two decoded JSON values,
// ignoring every scalar value. Arrays compare row by row over their common
// prefix: a quick run records fewer rows than a full one, but each row
// keeps its shape. A null or empty array where the artifact has rows is a
// difference, so a section that produced no rows cannot pass.
func keyShapeDiff(got, want any, path string) []string {
	if w, ok := want.([]any); ok && len(w) > 0 {
		if g, ok := got.([]any); !ok || len(g) == 0 {
			return []string{fmt.Sprintf("%s: no rows where the artifact has %d", path, len(w))}
		}
	}
	switch g := got.(type) {
	case map[string]any:
		w, ok := want.(map[string]any)
		if !ok {
			return []string{path + ": object where the artifact has a scalar or array"}
		}
		var diffs []string
		for k := range g {
			if _, ok := w[k]; !ok {
				diffs = append(diffs, path+"."+k+": not in the artifact")
			}
		}
		for k, wv := range w {
			gv, ok := g[k]
			if !ok {
				diffs = append(diffs, path+"."+k+": missing")
				continue
			}
			diffs = append(diffs, keyShapeDiff(gv, wv, path+"."+k)...)
		}
		return diffs
	case []any:
		w, ok := want.([]any)
		if !ok {
			return []string{path + ": array where the artifact has a scalar or object"}
		}
		var diffs []string
		for i := range min(len(g), len(w)) {
			diffs = append(diffs, keyShapeDiff(g[i], w[i], fmt.Sprintf("%s[%d]", path, i))...)
		}
		return diffs
	}
	return nil
}

// TestRunScaleCeilingWritesReportThenFails pins the CI-guard contract of
// -scale-ceiling-ns: an impossible ceiling makes run() return an error,
// but only after the report — with both estimator-labeled rows — has been
// written, so the failing artifact is still inspectable.
func TestRunScaleCeilingWritesReportThenFails(t *testing.T) {
	out := filepath.Join(t.TempDir(), "scale.json")
	err := run([]string{
		"-sections", "scale", "-scale-agents", "1000",
		"-scale-ceiling-ns", "0.001", "-o", out,
	})
	if err == nil {
		t.Fatal("a 0.001 ns/event ceiling must fail the run")
	}
	raw, rerr := os.ReadFile(out)
	if rerr != nil {
		t.Fatalf("report must be written before the ceiling failure: %v", rerr)
	}
	var rep report
	if jerr := json.Unmarshal(raw, &rep); jerr != nil {
		t.Fatalf("report does not decode: %v", jerr)
	}
	if len(rep.Scale) != 2 {
		t.Fatalf("want 2 estimator-variant scale rows, got %d", len(rep.Scale))
	}
	seen := map[string]bool{}
	for _, row := range rep.Scale {
		seen[row.Estimator] = true
		if row.Agents != 1000 || row.NsPerEvent <= 0 {
			t.Errorf("bad scale row: agents=%d ns/event=%v", row.Agents, row.NsPerEvent)
		}
	}
	if !seen["beta-private"] || !seen["complaints-sharded"] {
		t.Errorf("want the baseline and the complaints-sharded estimator rows, got %v", seen)
	}
}

func TestParseSizes(t *testing.T) {
	got, err := parseSizes(" 10, 20 ,,30 ")
	if err != nil || len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("parseSizes: got %v, %v", got, err)
	}
	for _, bad := range []string{"", ",", "x", "10,-5", "0"} {
		if _, err := parseSizes(bad); err == nil {
			t.Errorf("parseSizes(%q) did not error", bad)
		}
	}
}

// TestRunFlagErrors pins that malformed flags fail fast, before any
// section runs.
func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-scale-agents", "nope"},
		{"-definitely-not-a-flag"},
		{"-sections", "nope"},
		// A run with no reps would report zeros as measurements.
		{"-reps", "0"},
		{"-reps", "-1"},
		// The scale guard must not be disarmed by a run without scale rows,
		// whether by a typo or by leaving the section out.
		{"-sections", "scal", "-scale-ceiling-ns", "1"},
		{"-sections", "codec", "-scale-ceiling-ns", "1"},
		{"-sections", "scale", "-scale-ceiling-ns", "-1"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) did not error", args)
		}
	}
}
