// Command trustd runs the trust service: a durable daemon that ingests
// complaint batches over HTTP, serves the complaint model's trust scores, and
// survives kill -9 via its write-ahead log and checkpoints.
//
// Serve mode (the default) recovers state from -dir and listens until
// SIGINT or SIGTERM, then drains in-flight requests and closes the WAL:
//
//	trustd -addr :7654 -dir /var/lib/trustd -backend sharded -checkpoint-every 4096
//
// Loadgen mode closes the loop end to end: it opens a server over a temp
// directory, replays a simulated marketplace session trace against it over
// real HTTP, restarts the server from disk mid-verification, and exits
// nonzero if any served trust score differs from the in-process assessor's
// answer by even one bit:
//
//	trustd -loadgen -sessions 300 -batch 16 -seed 7
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"trustcoop/internal/cli"
	"trustcoop/internal/trustd"
)

// Serve-mode connection bounds: a client gets readHeaderTimeout to send its
// request headers and readTimeout for the whole request, an idle keep-alive
// connection is dropped after idleTimeout, and a shutdown waits at most
// shutdownTimeout for in-flight requests before closing anyway.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = time.Minute
	idleTimeout       = 2 * time.Minute
	shutdownTimeout   = 10 * time.Second
)

func main() {
	cli.Exit("trustd", run(os.Args[1:]))
}

func run(args []string) error {
	fs := flag.NewFlagSet("trustd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7654", "listen address (serve mode)")
	dir := fs.String("dir", "", "durability directory (serve mode; required)")
	backend := fs.String("backend", "sharded", "complaint store backend spec (memory | sharded | async:sharded | ...)")
	every := fs.Int("checkpoint-every", trustd.DefaultCheckpointEvery, "complaints between checkpoints, at least 1; also bounds the complaints held for the next one")
	factor := fs.Float64("factor", 0, "trust decision threshold (0 = model default)")
	fsync := fs.Bool("fsync", false, "fsync the WAL on every append, so an ack survives a power loss; without it an ack survives a process crash, not a power loss")
	loadgen := fs.Bool("loadgen", false, "run the closed-loop load generator instead of serving")
	sessions := fs.Int("sessions", 200, "loadgen: marketplace sessions to simulate")
	batch := fs.Int("batch", 8, "loadgen: complaints per ingest batch")
	seed := fs.Int64("seed", 1, "loadgen: simulation seed")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *every < 1 {
		return fmt.Errorf("-checkpoint-every must be at least 1, got %d", *every)
	}
	if math.IsNaN(*factor) || math.IsInf(*factor, 0) {
		return fmt.Errorf("-factor must be finite, got %v", *factor)
	}
	if *loadgen {
		return runLoadgen(*backend, *every, *factor, *sessions, *batch, *seed)
	}
	if *dir == "" {
		return fmt.Errorf("serve mode requires -dir")
	}
	// Catch the signals before recovery starts, so a stop request that
	// arrives at any point ends in a clean close rather than a kill.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv, err := trustd.Open(trustd.Options{
		Dir:             *dir,
		Backend:         *backend,
		Factor:          *factor,
		CheckpointEvery: *every,
		Fsync:           *fsync,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return errors.Join(err, srv.Close())
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "trustd: recovered %d checkpoint peers + %d WAL batches (%d complaints, %d torn bytes) in %.3fs; serving on %s (Prometheus scrape: GET /metrics)\n",
		st.RecoveredCheckpointPeers, st.RecoveredBatches, st.RecoveredComplaints, st.TornTailBytes,
		float64(st.RecoveryNs)/1e9, *addr)
	return serve(ctx, ln, srv)
}

// serve answers srv's HTTP surface on ln until ctx is done or the listener
// fails. It then stops accepting, drains in-flight requests (bounded by
// shutdownTimeout) and closes srv, which drains any write-behind backlog
// and closes the WAL (syncing it first under -fsync). srv is closed on
// every path.
func serve(ctx context.Context, ln net.Listener, srv *trustd.Server) error {
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	var err error
	select {
	case err = <-served:
	case <-ctx.Done():
		shutdown, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		err = hs.Shutdown(shutdown)
		cancel()
	}
	return errors.Join(err, srv.Close())
}

// runLoadgen is the self-contained closed loop: real listener, real HTTP
// client, a mid-run restart from disk, and a bit-exact score comparison.
func runLoadgen(backend string, every int, factor float64, sessions, batch int, seed int64) error {
	cfg := trustd.LoadgenConfig{Sessions: sessions, Batch: batch, Seed: seed, Factor: factor}
	_, peers, err := trustd.LoadgenAgents(cfg)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "trustd-loadgen-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := trustd.Options{
		Dir:             dir,
		Backend:         backend,
		Population:      peers,
		Factor:          factor,
		CheckpointEvery: every,
	}
	srv, err := trustd.Open(opts)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	rep, err := trustd.RunLoadgen("http://"+ln.Addr().String(), cfg)
	hs.Close()
	if err != nil {
		srv.Close()
		return err
	}
	if err := srv.Close(); err != nil {
		return err
	}

	// Restart from disk and verify recovery served the same bits: replay the
	// identical trace's queries against the recovered server. Ingesting again
	// would double-count, so this pass only re-queries.
	srv2, err := trustd.Open(opts)
	if err != nil {
		return err
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv2.Close()
		return err
	}
	hs2 := &http.Server{Handler: srv2.Handler()}
	go hs2.Serve(ln2)
	rep2, err := trustd.ReplayQueries("http://"+ln2.Addr().String(), cfg)
	hs2.Close()
	if cerr := srv2.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	out := struct {
		Live      trustd.LoadgenReport `json:"live"`
		Recovered trustd.LoadgenReport `json:"recovered"`
	}{rep, rep2}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return err
	}
	if rep.ScoreDivergence != 0 || rep2.ScoreDivergence != 0 {
		return fmt.Errorf("closed loop diverged: %d live + %d recovered score mismatches (first: %s%s)",
			rep.ScoreDivergence, rep2.ScoreDivergence, rep.FirstDivergence, rep2.FirstDivergence)
	}
	return nil
}
