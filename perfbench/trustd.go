package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"trustcoop/internal/reputation"
	"trustcoop/internal/seedmix"
	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
	"trustcoop/internal/trustd"
)

const (
	// trustdClients is the number of closed-loop clients, one connection
	// each: at most nproc on the two-core hosts the workloads were sized on.
	trustdClients = 2
	// traceSessions is the length of the simulated market trace the
	// trustd-market clients replay, cyclically.
	traceSessions = 8192
	traceAgents   = 10_000
	traceBatch    = 8 // complaints per POST, as trustd -loadgen sends them

	ingestPeers       = 100_000
	ingestBatch       = 16
	ingestPostsPerGet = 4     // the light share of score reads
	ingestBatches     = 16384 // per client stream, replayed cyclically

	trustdSetupReps   = 15
	trustdRestartReps = 3
	verifySample      = 256 // peers whose served scores are checked
	readyTimeout      = 30 * time.Second
)

// op is one request of a client's stream: a score query (batch nil) or a
// complaint batch with its encoded body.
type op struct {
	peer  trust.PeerID
	path  string
	batch []complaints.Complaint
	body  []byte
}

func scoreOp(p trust.PeerID) op {
	return op{peer: p, path: "/v1/score?peer=" + url.QueryEscape(string(p))}
}

func ingestOp(batch []complaints.Complaint) op {
	return op{batch: batch, body: complaints.NewDelta(batch).Encode()}
}

// trustdLoad is a trustd workload's input: a preload posted before the
// clock starts, each client's request stream, and the peers the
// correctness check samples from.
type trustdLoad struct {
	preload  []op
	streams  [][]op
	universe []trust.PeerID
}

func runTrustdMarket(env *runEnv, rep *report) error {
	load, err := marketTraceLoad(env.seed)
	if err != nil {
		return err
	}
	return runTrustd(env, rep, load)
}

func runTrustdIngest(env *runEnv, rep *report) error {
	return runTrustd(env, rep, ingestLoad(env.seed))
}

// recordStore keeps the complaints filed into it, in order.
type recordStore struct{ got []complaints.Complaint }

func (r *recordStore) File(c complaints.Complaint) error {
	r.got = append(r.got, c)
	return nil
}
func (r *recordStore) Received(trust.PeerID) (int, error) { return 0, nil }
func (r *recordStore) Filed(trust.PeerID) (int, error)    { return 0, nil }

// marketTraceLoad simulates the market-trust-aware shape for
// traceSessions sessions and turns the trace into the clients' request
// streams: per session a score query for each party, then the session's
// complaints, posted in batches of traceBatch. Sessions alternate between
// clients. The universe is every agent.
func marketTraceLoad(seed int64) (trustdLoad, error) {
	var load trustdLoad
	pop, err := newPopulation(traceAgents, seed)
	if err != nil {
		return load, err
	}
	eng, err := newMarketEngine(trustAwareShape, pop, seed, "sharded")
	if err != nil {
		return load, err
	}
	if _, _, err := drive(eng, 0, traceSessions/marketWindow); err != nil {
		return load, err
	}
	if _, err := eng.FinishRun(); err != nil {
		return load, err
	}
	// Each session's complaints, exactly as reputation.Feed filed them.
	bySession := make(map[int][]complaints.Complaint)
	for _, ev := range eng.Ledger().Events() {
		rec := &recordStore{}
		err := reputation.Feed(ev, func(obs trust.PeerID) trust.Estimator {
			return &complaints.Estimator{Assessor: complaints.Assessor{Store: rec}, Observer: obs}
		}, nil)
		if err != nil {
			return load, err
		}
		bySession[ev.Round] = rec.got
	}
	pair := pairStream(seed, len(pop))
	streams := make([][]op, trustdClients)
	pending := make([][]complaints.Complaint, trustdClients)
	for id := 0; id < traceSessions; id++ {
		c := id % trustdClients
		si, ci := pair()
		streams[c] = append(streams[c], scoreOp(pop[si].ID), scoreOp(pop[ci].ID))
		pending[c] = append(pending[c], bySession[id]...)
		for len(pending[c]) >= traceBatch {
			streams[c] = append(streams[c], ingestOp(slices.Clone(pending[c][:traceBatch])))
			pending[c] = pending[c][traceBatch:]
		}
	}
	for c := range pending {
		if len(pending[c]) > 0 {
			streams[c] = append(streams[c], ingestOp(pending[c]))
		}
	}
	load.streams = streams
	load.universe = make([]trust.PeerID, len(pop))
	for i, a := range pop {
		load.universe[i] = a.ID
	}
	return load, nil
}

// ingestLoad draws each client's stream: batches of ingestBatch complaints
// between distinct uniform peers of an ingestPeers population, with one score
// query of a uniform peer after every ingestPostsPerGet posts.
//
// The preload files one complaint between each pair of consecutive peers, so
// the daemon has seen the whole population before the clock starts and the
// run measures its steady state. While the seen set still grows, every score
// read after a batch that adds a peer re-sorts the whole seen set under the
// ingest mutex (trustd's Server.seenLocked); README.md reports that growth
// phase separately.
func ingestLoad(seed int64) trustdLoad {
	peers := make([]trust.PeerID, ingestPeers)
	for i := range peers {
		peers[i] = trust.PeerID(fmt.Sprintf("p%06d", i))
	}
	load := trustdLoad{universe: peers}
	for k := 0; k+1 < len(peers); k += 2 * ingestBatch {
		var batch []complaints.Complaint
		for i := k; i < min(k+2*ingestBatch, len(peers)-1); i += 2 {
			batch = append(batch, complaints.Complaint{From: peers[i], About: peers[i+1]})
		}
		load.preload = append(load.preload, ingestOp(batch))
	}
	streams := make([][]op, trustdClients)
	for c := range streams {
		rng := rand.New(rand.NewSource(seedmix.Derive(seed, uint64(c)+1)))
		for b := 0; b < ingestBatches; b++ {
			batch := make([]complaints.Complaint, ingestBatch)
			for k := range batch {
				i, j := rng.Intn(len(peers)), rng.Intn(len(peers)-1)
				if j >= i {
					j++
				}
				batch[k] = complaints.Complaint{From: peers[i], About: peers[j]}
			}
			streams[c] = append(streams[c], ingestOp(batch))
			if (b+1)%ingestPostsPerGet == 0 {
				streams[c] = append(streams[c], scoreOp(peers[rng.Intn(len(peers))]))
			}
		}
	}
	load.streams = streams
	return load
}

// daemon is one trustd serve-mode process on loopback.
type daemon struct {
	cmd    *exec.Cmd
	dir    string
	base   string
	stderr strings.Builder // read only after done is closed
	ready  chan struct{}   // closed when the daemon logs that it is serving
	done   chan struct{}   // closed when the process has exited
}

// startDaemon launches trustd with its default flags over dir on a free
// loopback port.
func startDaemon(bin, dir string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	d := &daemon{dir: dir, base: "http://" + addr, ready: make(chan struct{}), done: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", addr, "-dir", dir)
	// The daemon dies with the benchmark even if the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start trustd: %w", err)
	}
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			d.stderr.WriteString(sc.Text() + "\n")
			if strings.Contains(sc.Text(), "serving on") {
				close(d.ready)
			}
		}
		_ = d.cmd.Wait() // a killed daemon always exits with an error
		close(d.done)
	}()
	return d, nil
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// stop kills the daemon (kill -9: the crash trustd recovers from) and waits
// until it has exited.
func (d *daemon) stop() {
	_ = d.cmd.Process.Kill() // fails only if it already exited; done still closes
	<-d.done
}

// waitUntil waits for the daemon to log that it is serving, then polls probe
// until it reports true, the daemon exits or readyTimeout passes. Waiting on
// the log line instead of sleeping between polls keeps the measurement
// exact: a sub-millisecond sleep overshoots by about a millisecond, and a
// busy poll takes a core from the starting daemon.
func (d *daemon) waitUntil(probe func(c *loadClient) bool) error {
	timeout := time.After(readyTimeout)
	select {
	case <-d.ready:
	case <-d.done:
		return fmt.Errorf("trustd exited: %s", strings.TrimSpace(d.stderr.String()))
	case <-timeout:
		return fmt.Errorf("trustd on %s did not start within %v", d.dir, readyTimeout)
	}
	c := newLoadClient(d.base)
	defer c.close()
	for !probe(c) {
		select {
		case <-d.done:
			return fmt.Errorf("trustd exited: %s", strings.TrimSpace(d.stderr.String()))
		case <-timeout:
			return fmt.Errorf("trustd on %s not ready within %v", d.dir, readyTimeout)
		case <-time.After(50 * time.Microsecond):
		}
	}
	return nil
}

// loadClient is one closed-loop client with its own keep-alive connection.
// It writes HTTP/1.1 requests on the connection itself and parses replies
// with net/http's reader: the net/http client hands every request between
// goroutines and would spend nearly as much CPU per request as the daemon
// does, on the same two cores.
type loadClient struct {
	addr string // host:port
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer

	scoreNs, ingestNs []int64 // latencies of successful requests
	attempted, failed int64
	firstErr          error
	acked             [][]complaints.Complaint
	done              int // stream position reached
}

// newLoadClient returns a client of the server at base ("http://host:port").
func newLoadClient(base string) *loadClient {
	return &loadClient{addr: strings.TrimPrefix(base, "http://")}
}

func (c *loadClient) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// roundTrip sends one request and reads the whole reply; the latency runs
// from send to body read. A transport error drops the connection, and the
// next request dials a new one.
func (c *loadClient) roundTrip(method, path string, body []byte) ([]byte, time.Duration, error) {
	start := time.Now()
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, 10*time.Second)
		if err != nil {
			return nil, 0, err
		}
		c.conn, c.r, c.w = conn, bufio.NewReader(conn), bufio.NewWriter(conn)
	}
	if err := c.conn.SetDeadline(start.Add(10 * time.Second)); err != nil {
		c.close()
		return nil, 0, err
	}
	fmt.Fprintf(c.w, "%s %s HTTP/1.1\r\nHost: %s\r\n", method, path, c.addr)
	if body != nil {
		fmt.Fprintf(c.w, "Content-Type: application/octet-stream\r\nContent-Length: %d\r\n", len(body))
	}
	c.w.WriteString("\r\n")
	c.w.Write(body)
	err := c.w.Flush() // reports any error of the buffered writes above
	var resp *http.Response
	if err == nil {
		resp, err = http.ReadResponse(c.r, nil)
	}
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	lat := time.Since(start)
	if err != nil {
		c.close()
		return nil, 0, err
	}
	if resp.Close {
		c.close()
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("%s %s returned %s", method, path, resp.Status)
	}
	return data, lat, nil
}

// score queries one peer's assessment.
func (c *loadClient) score(o *op) (trustd.Score, time.Duration, error) {
	body, lat, err := c.roundTrip(http.MethodGet, o.path, nil)
	if err != nil {
		return trustd.Score{}, 0, err
	}
	var sc trustd.Score
	if err := json.Unmarshal(body, &sc); err != nil {
		return trustd.Score{}, 0, fmt.Errorf("score reply: %w", err)
	}
	if sc.Peer != o.peer {
		return trustd.Score{}, 0, fmt.Errorf("asked for %s, got the score of %s", o.peer, sc.Peer)
	}
	return sc, lat, nil
}

// ingest posts one complaint batch; the ack must cover all of it.
func (c *loadClient) ingest(o *op) (time.Duration, error) {
	body, lat, err := c.roundTrip(http.MethodPost, "/v1/complaints", o.body)
	if err != nil {
		return 0, err
	}
	var ack struct {
		Applied int `json:"applied"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return 0, fmt.Errorf("ingest reply: %w", err)
	}
	if ack.Applied != len(o.batch) {
		return 0, fmt.Errorf("short ack: %d of %d complaints applied", ack.Applied, len(o.batch))
	}
	return lat, nil
}

// run replays stream cyclically, one request at a time, until deadline, or
// exactly n requests when n > 0.
func (c *loadClient) run(stream []op, n int, deadline time.Time) {
	for i := 0; (n > 0 && i < n) || (n == 0 && time.Now().Before(deadline)); i++ {
		o := &stream[i%len(stream)]
		c.attempted++
		c.done = i + 1
		var lat time.Duration
		var err error
		if o.batch == nil {
			_, lat, err = c.score(o)
		} else {
			lat, err = c.ingest(o)
		}
		if err != nil {
			c.failed++
			if c.firstErr == nil {
				c.firstErr = err
			}
			continue
		}
		if o.batch == nil {
			c.scoreNs = append(c.scoreNs, int64(lat))
		} else {
			c.ingestNs = append(c.ingestNs, int64(lat))
			c.acked = append(c.acked, o.batch)
		}
	}
}

// reference is the state trustd must serve: a MemoryStore fed every acked
// complaint, normalised over the sorted set of peers those complaints
// mention — the daemon's dynamic population.
type reference struct {
	store *complaints.MemoryStore
	pop   []trust.PeerID
}

func newReference(acked [][]complaints.Complaint) (reference, error) {
	ref := reference{store: complaints.NewMemoryStore()}
	seen := map[trust.PeerID]struct{}{}
	for _, b := range acked {
		if err := ref.store.FileBatch(b); err != nil {
			return ref, err
		}
		for _, c := range b {
			seen[c.From] = struct{}{}
			seen[c.About] = struct{}{}
		}
	}
	for p := range seen {
		ref.pop = append(ref.pop, p)
	}
	slices.Sort(ref.pop)
	return ref, nil
}

// score is the assessment trustd should serve for p, through the public
// assessor API.
func (r reference) score(p trust.PeerID) (trustd.Score, error) {
	a := complaints.Assessor{Store: r.store, Population: r.pop}
	tallies, err := complaints.CountsAll(r.store, []trust.PeerID{p})
	if err != nil {
		return trustd.Score{}, err
	}
	want := trustd.Score{Peer: p, Received: tallies[0].Received, Filed: tallies[0].Filed}
	if want.Product, err = a.Product(p); err != nil {
		return want, err
	}
	if want.Score, err = a.NormalisedScore(p); err != nil {
		return want, err
	}
	if want.Probability, err = a.Probability(p); err != nil {
		return want, err
	}
	want.Trustworthy, err = a.Trustworthy(p)
	return want, err
}

// diffScores compares two assessments bit for bit; empty means equal. The
// generation is process-local and not compared.
func diffScores(got, want trustd.Score) string {
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

// verify asks the daemon at base for every sampled peer's score and counts
// each reply that fails or differs from the reference as a failed operation.
func verify(base string, ref reference, sample []trust.PeerID, rep *report, phase string) {
	c := newLoadClient(base)
	defer c.close()
	for _, p := range sample {
		rep.attempted++
		o := scoreOp(p)
		got, _, err := c.score(&o)
		if err != nil {
			rep.fail(1, "%s: %v", phase, err)
			continue
		}
		want, err := ref.score(p)
		if err != nil {
			rep.fail(1, "%s: reference: %v", phase, err)
			continue
		}
		if d := diffScores(got, want); d != "" {
			rep.fail(1, "%s: peer %s: %s", phase, p, d)
		}
	}
}

// samplePeers draws verifySample distinct peers of universe from the seed.
func samplePeers(universe []trust.PeerID, seed int64) []trust.PeerID {
	rng := rand.New(rand.NewSource(seedmix.Derive(seed, 1<<32)))
	idx := rng.Perm(len(universe))[:min(verifySample, len(universe))]
	out := make([]trust.PeerID, len(idx))
	for i, j := range idx {
		out[i] = universe[j]
	}
	return out
}

func fetchStats(base string) (trustd.Stats, error) {
	var st trustd.Stats
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats returned %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// fetchMetric reads one unlabelled sample from the daemon's /metrics.
func fetchMetric(base, name string) (float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/metrics has no sample %s", name)
}

// clientCPUSeconds is this process's user+system CPU time.
func clientCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// trafficStats is the daemon's accounting of the traffic alone: the
// counters after it minus those after the preload.
func trafficStats(before, after trustd.Stats) trustd.Stats {
	return trustd.Stats{
		IngestedComplaints: after.IngestedComplaints - before.IngestedComplaints,
		WALBytes:           after.WALBytes - before.WALBytes,
		WALAppends:         after.WALAppends - before.WALAppends,
		Checkpoints:        after.Checkpoints - before.Checkpoints,
		CacheHits:          after.CacheHits - before.CacheHits,
		CacheMisses:        after.CacheMisses - before.CacheMisses,
	}
}

// trafficResult is what the load phase measured.
type trafficResult struct {
	clients           []*loadClient
	elapsed           time.Duration
	stolen            float64 // seconds per CPU stolen by the host during the traffic
	serverCPU, client float64 // CPU seconds over the traffic
	stats             trustd.Stats
	checkpointNs      float64 // daemon's own checkpoint time over the traffic
	peakRSS           float64
	restartStats      trustd.Stats
	setup, restart    []float64
	scoreNs, ingestNs []int64
}

func runTrustd(env *runEnv, rep *report, load trustdLoad) error {
	if env.trustd == "" {
		return errors.New("-trustd is required for trustd workloads")
	}
	tr, err := trustdTraffic(env, rep, load)
	if err != nil {
		return err
	}
	var all []int64
	all = append(append(all, tr.scoreNs...), tr.ingestNs...)
	secs := tr.elapsed.Seconds()
	fmt.Fprintf(os.Stderr, "trustd: %d requests (%d scores, %d ingests) in %.2fs wall over %d clients, %.2fs stolen per CPU\n",
		len(all), len(tr.scoreNs), len(tr.ingestNs), secs, len(tr.clients), tr.stolen)
	if !env.traced {
		rep.set("ops_per_s", float64(len(all))/ranSeconds(tr.elapsed, tr.stolen), len(all))
		rep.set("op_p50_us", percentile(all, 0.50)/1e3, len(all))
		rep.set("setup_s", median(tr.setup), len(tr.setup))
		rep.set("peak_rss_mb", tr.peakRSS, 1)
		return nil
	}

	ops := float64(len(all))
	st := tr.stats
	rep.set("client.score_p50_us", percentile(tr.scoreNs, 0.50)/1e3, len(tr.scoreNs))
	rep.set("client.score_p99_us", percentile(tr.scoreNs, 0.99)/1e3, len(tr.scoreNs))
	rep.set("client.ingest_p50_us", percentile(tr.ingestNs, 0.50)/1e3, len(tr.ingestNs))
	rep.set("client.ingest_p99_us", percentile(tr.ingestNs, 0.99)/1e3, len(tr.ingestNs))
	rep.set("client.cpu_us_per_op", frac(tr.client*1e6, ops), len(all))
	rep.set("trustd.server_cpu_us_per_op", frac(tr.serverCPU*1e6, ops), len(all))
	rep.set("trustd.cache_hit_frac", frac(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses)), int(st.CacheHits+st.CacheMisses))
	rep.set("trustd.wal_bytes_per_complaint", frac(float64(st.WALBytes), float64(st.IngestedComplaints)), int(st.IngestedComplaints))
	rep.set("trustd.wal_appends", float64(st.WALAppends), 1)
	rep.set("trustd.checkpoints", float64(st.Checkpoints), 1)
	rep.set("trustd.checkpoint_busy_frac", tr.checkpointNs/float64(tr.elapsed), 1)
	rep.set("trustd.restart_ms", median(tr.restart)*1e3, len(tr.restart))
	rep.set("trustd.recovery_ms", float64(tr.restartStats.RecoveryNs)/1e6, 1)
	rep.set("trustd.recovered_complaints", float64(tr.restartStats.RecoveredComplaints), 1)

	// In-process replay of the same request stream: once plain, once with
	// every call timed; the difference is the tracing overhead.
	done := make([]int, len(tr.clients))
	for i, c := range tr.clients {
		done[i] = c.done
	}
	plain, err := replayInProcess(filepath.Join(env.workdir, "replay-plain"), load, done, false)
	if err != nil {
		return err
	}
	timed, err := replayInProcess(filepath.Join(env.workdir, "replay-timed"), load, done, true)
	if err != nil {
		return err
	}
	rep.set("trustd.inproc_ingest_p50_us", percentile(timed.ingestNs, 0.50)/1e3, len(timed.ingestNs))
	rep.set("trustd.inproc_score_p50_us", percentile(timed.scoreNs, 0.50)/1e3, len(timed.scoreNs))
	rep.set("trustd.query_cold_p50_us", percentile(timed.coldNs, 0.50)/1e3, len(timed.coldNs))
	rep.set("trustd.checkpoint_p50_ms", percentile(timed.checkpointNs, 0.50)/1e6, len(timed.checkpointNs))
	rep.set("trustd.checkpoint_p99_ms", percentile(timed.checkpointNs, 0.99)/1e6, len(timed.checkpointNs))
	inproc := sum(timed.ingestNs) + sum(timed.scoreNs)
	rep.set("trustd.http_share", 1-frac(float64(inproc), float64(sum(all))), len(all))
	rep.set("trace.overhead_frac", float64(timed.wall)/float64(plain.wall)-1, 1)
	return nil
}

// trustdTraffic runs the daemon's life: set-up, closed-loop traffic, the
// correctness check, crash-restarts, and the check again.
func trustdTraffic(env *runEnv, rep *report, load trustdLoad) (*trafficResult, error) {
	tr := &trafficResult{}
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	statsOK := func(c *loadClient) bool {
		_, _, err := c.roundTrip(http.MethodGet, "/v1/stats", nil)
		return err == nil
	}

	// Set-up: launch over a fresh directory until the daemon answers. The
	// last launch serves the run.
	for i := 0; i < trustdSetupReps; i++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		var err error
		if d, err = startDaemon(env.trustd, filepath.Join(env.workdir, fmt.Sprintf("data-%d", i))); err != nil {
			return nil, err
		}
		if err := d.waitUntil(statsOK); err != nil {
			return nil, err
		}
		tr.setup = append(tr.setup, time.Since(start).Seconds())
	}

	// Preload, before the clock starts.
	pre := newLoadClient(d.base)
	pre.run(load.preload, len(load.preload), time.Time{})
	pre.close()
	rep.attempted += pre.attempted
	if pre.failed > 0 {
		rep.fail(pre.failed, "preload: %v", pre.firstErr)
	}
	acked := pre.acked
	before, err := fetchStats(d.base)
	if err != nil {
		return nil, err
	}
	ckpt0, err := fetchMetric(d.base, "trustd_checkpoint_duration_ns_sum")
	if err != nil {
		return nil, err
	}

	cpu0, err := cpuSeconds(d.pid())
	if err != nil {
		return nil, err
	}
	client0 := clientCPUSeconds()
	steal0, err := stealSeconds()
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(env.seconds)
	start := time.Now()
	var wg sync.WaitGroup
	for _, s := range load.streams {
		c := newLoadClient(d.base)
		tr.clients = append(tr.clients, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(s, 0, deadline)
		}()
	}
	wg.Wait()
	tr.elapsed = time.Since(start)
	steal1, err := stealSeconds()
	if err != nil {
		return nil, err
	}
	tr.stolen = steal1 - steal0

	tr.client = clientCPUSeconds() - client0
	cpu1, err := cpuSeconds(d.pid())
	if err != nil {
		return nil, err
	}
	tr.serverCPU = cpu1 - cpu0
	for _, c := range tr.clients {
		c.close()
		rep.attempted += c.attempted
		if c.failed > 0 {
			rep.fail(c.failed, "traffic: %v", c.firstErr)
		}
		tr.scoreNs = append(tr.scoreNs, c.scoreNs...)
		tr.ingestNs = append(tr.ingestNs, c.ingestNs...)
		acked = append(acked, c.acked...)
	}
	after, err := fetchStats(d.base)
	if err != nil {
		return nil, err
	}
	tr.stats = trafficStats(before, after)
	ckpt1, err := fetchMetric(d.base, "trustd_checkpoint_duration_ns_sum")
	if err != nil {
		return nil, err
	}
	tr.checkpointNs = ckpt1 - ckpt0
	if tr.peakRSS, err = peakRSSMB(d.pid()); err != nil {
		return nil, err
	}

	ref, err := newReference(acked)
	if err != nil {
		return nil, err
	}
	sample := samplePeers(load.universe, env.seed)
	verify(d.base, ref, sample, rep, "after traffic")

	// Restart: kill -9, relaunch over the same directory, and time until the
	// first correct score.
	probe := scoreOp(sample[0])
	want, err := ref.score(probe.peer)
	if err != nil {
		return nil, err
	}
	correct := func(c *loadClient) bool {
		got, _, err := c.score(&probe)
		return err == nil && diffScores(got, want) == ""
	}
	dir := d.dir
	for i := 0; i < trustdRestartReps; i++ {
		d.stop()
		start := time.Now()
		if d, err = startDaemon(env.trustd, dir); err != nil {
			return nil, err
		}
		rep.attempted++
		if err := d.waitUntil(correct); err != nil {
			rep.fail(1, "restart: %v", err)
		}
		tr.restart = append(tr.restart, time.Since(start).Seconds())
	}
	verify(d.base, ref, sample, rep, "after restart")
	if tr.restartStats, err = fetchStats(d.base); err != nil {
		return nil, err
	}
	return tr, nil
}

// inprocReplay is what one in-process replay measured.
type inprocReplay struct {
	wall                 time.Duration
	ingestNs, scoreNs    []int64 // decode+Ingest, ScoreOf
	coldNs, checkpointNs []int64 // score-cache misses; ingests that checkpointed
}

// replayInProcess drives the load's preload and then the requests the
// clients completed through an in-process trustd.Server with the daemon's
// default options, taking the clients' streams in round-robin order. With
// timed set it records every call's latency after the preload, and which
// calls missed the score cache or checkpointed.
func replayInProcess(dir string, load trustdLoad, done []int, timed bool) (inprocReplay, error) {
	var r inprocReplay
	srv, err := trustd.Open(trustd.Options{Dir: dir, CheckpointEvery: 4096})
	if err != nil {
		return r, err
	}
	defer srv.Close()
	for _, o := range load.preload {
		if err := srv.Ingest(o.batch); err != nil {
			return r, err
		}
	}
	last := srv.Stats()
	start := time.Now()
	for i := 0; i < slices.Max(done); i++ {
		for c, s := range load.streams {
			if i >= done[c] {
				continue
			}
			o := &s[i%len(s)]
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			if o.batch != nil {
				d, err := trust.DecodeEvidence(trust.EvidenceComplaints, o.body)
				if err != nil {
					return r, err
				}
				if err := srv.Ingest(d.(*complaints.Delta).Complaints); err != nil {
					return r, err
				}
			} else if _, err := srv.ScoreOf(o.peer); err != nil {
				return r, err
			}
			if !timed {
				continue
			}
			ns := int64(time.Since(t0))
			st := srv.Stats()
			if o.batch != nil {
				r.ingestNs = append(r.ingestNs, ns)
				if st.Checkpoints != last.Checkpoints {
					r.checkpointNs = append(r.checkpointNs, ns)
				}
			} else {
				r.scoreNs = append(r.scoreNs, ns)
				if st.CacheMisses != last.CacheMisses {
					r.coldNs = append(r.coldNs, ns)
				}
			}
			last = st
		}
	}
	r.wall = time.Since(start)
	return r, srv.Close()
}
