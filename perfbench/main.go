// Command perfbench is the repository benchmark. It runs one workload over
// the market simulator or the trustd evidence service, checks the outputs,
// and prints one JSON line: the end-to-end metrics of an untimed run
// (-trace 0) or the per-layer metrics of a traced run (-trace 1). See
// README.md for the metric catalogue and why each workload exists.
//
//	bash perfbench/run.sh --workload trustd-market --seed 3 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them; README.md defines each per workload family.
var endToEnd = []metricSpec{
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, named layer.metric after the module
// that does the work. A layer a workload never calls reports 0.
var perLayer = []metricSpec{
	{"core.plan_p50_ns", "ns"},
	{"core.plan_p99_ns", "ns"},
	{"core.no_agreement_frac", "frac"},
	{"exchange.schedule_p50_ns", "ns"},
	{"exchange.schedule_p99_ns", "ns"},
	{"exchange.calls_per_plan", "count"},
	{"exchange.infeasible_frac", "frac"},
	{"exchange.allocs_per_call", "count"},
	{"market.session_seed_p50_ns", "ns"},
	{"market.self_ns_per_session", "ns"},
	{"goods.generate_p50_ns", "ns"},
	{"netsim.events_per_session", "count"},
	{"netsim.messages_per_session", "count"},
	{"complaints.file_calls_per_session", "count"},
	{"complaints.file_mean_ns", "ns"},
	{"complaints.read_calls_per_session", "count"},
	{"complaints.read_mean_ns", "ns"},
	{"runtime.allocs_per_session", "count"},
	{"runtime.alloc_bytes_per_session", "B"},
	{"runtime.gc_cpu_frac", "frac"},
	{"client.score_p50_us", "us"},
	{"client.score_p99_us", "us"},
	{"client.ingest_p50_us", "us"},
	{"client.ingest_p99_us", "us"},
	{"client.cpu_us_per_op", "us"},
	{"trustd.inproc_ingest_p50_us", "us"},
	{"trustd.inproc_score_p50_us", "us"},
	{"trustd.http_share", "frac"},
	{"trustd.cache_hit_frac", "frac"},
	{"trustd.query_cold_p50_us", "us"},
	{"trustd.wal_bytes_per_complaint", "B"},
	{"trustd.wal_appends", "count"},
	{"trustd.checkpoints", "count"},
	{"trustd.checkpoint_p50_ms", "ms"},
	{"trustd.checkpoint_p99_ms", "ms"},
	{"trustd.checkpoint_busy_frac", "frac"},
	{"trustd.restart_ms", "ms"},
	{"trustd.recovery_ms", "ms"},
	{"trustd.recovered_complaints", "count"},
	{"trustd.server_cpu_us_per_op", "us"},
	{"trace.overhead_frac", "frac"},
}

// workloads maps each workload name to its runner. README.md records why
// each one exists.
var workloads = map[string]func(*runEnv, *report) error{
	"market-trust-aware": runMarketTrustAware,
	"market-naive-1m":    runMarketNaive,
	"trustd-market":      runTrustdMarket,
	"trustd-ingest":      runTrustdIngest,
}

// runEnv is what a workload runner gets from the command line.
type runEnv struct {
	seed    int64
	seconds time.Duration
	traced  bool
	trustd  string // daemon binary
	workdir string // scratch space for this run, removed at exit
}

// report collects one run's outcome: operation counts, failures and the
// metric values with their sample counts.
type report struct {
	attempted, failed int64
	failures          []string
	values            map[string]float64
	samples           map[string]int
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}}
}

// set records a metric value measured over n samples.
func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// fail counts n failed operations and keeps the first few reasons.
func (r *report) fail(n int64, format string, args ...any) {
	r.failed += n
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := fs.Int("seconds", 10, "measured duration of the run, in seconds")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 runs the traced per-layer pass")
	trustdBin := fs.String("trustd", "", "path to the trustd daemon binary (trustd-* workloads)")
	workdir := fs.String("workdir", "", "scratch directory for daemon state (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runner, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, have %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, have %d", *trace)
	}
	if *workdir == "" {
		return errors.New("-workdir is required")
	}
	dir, err := os.MkdirTemp(*workdir, *workload+"-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	env := &runEnv{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		trustd:  *trustdBin,
		workdir: dir,
	}

	printHostFacts()
	rep := newReport()
	if err := runner(env, rep); err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	specs := endToEnd
	if env.traced {
		specs = perLayer
	}
	return emit(os.Stdout, os.Stderr, specs, rep)
}

// emit prints the human-readable report (every metric with its unit and
// sample count, plus any failures) to log and the result line to out.
func emit(out, log *os.File, specs []metricSpec, rep *report) error {
	line := resultLine{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	if rep.attempted < 1 {
		return errors.New("run attempted no operations")
	}
	for _, s := range specs {
		v := rep.values[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", s.name, v)
		}
		line.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
		fmt.Fprintf(log, "  %-36s %16.4f %-6s n=%d\n", s.name, v, s.unit, rep.samples[s.name])
	}
	fmt.Fprintf(log, "  attempted %d, failed %d (error_frac %.6f)\n",
		rep.attempted, rep.failed, float64(rep.failed)/float64(rep.attempted))
	for _, f := range rep.failures {
		fmt.Fprintln(log, "  failure:", f)
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", data)
	return err
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// printHostFacts records the host the run measured on. The sleep overshoot
// is why the trustd clients run closed loops: an open-loop schedule of
// sub-millisecond gaps would mostly measure time.Sleep.
func printHostFacts() {
	const want = 100 * time.Microsecond
	over := make([]float64, 50)
	for i := range over {
		start := time.Now()
		time.Sleep(want)
		over[i] = float64(time.Since(start)-want) / 1e3
	}
	fmt.Fprintf(os.Stderr, "host: nproc=%d GOMAXPROCS=%d go=%s sleep(100us) overshoot p50=%.0fus\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), median(over))
}
