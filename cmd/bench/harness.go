package main

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"trustcoop/internal/agent"
	"trustcoop/internal/benchutil"
	"trustcoop/internal/market"
	"trustcoop/internal/stats"
	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
)

// The measurement harness. Every timed figure in the report comes from
// bestOf (best-of-reps wall clock, means per op via nsPerOp) and every
// latency object from observe (a separate instrumented pass), so the two
// kinds of number never share a loop: bulk means pay no per-op clock reads.

// bestOf runs op reps times and returns the result and time of the fastest
// run (the first on ties). op reports the span it timed, so per-rep set-up
// and tear-down stay out of the comparison; timed adapts an op that is timed
// whole.
func bestOf[T any](reps int, op func() (T, time.Duration, error)) (T, time.Duration, error) {
	var best T
	var bestD time.Duration
	for r := range reps {
		v, d, err := op()
		if err != nil {
			return best, 0, err
		}
		if r == 0 || d < bestD {
			best, bestD = v, d
		}
	}
	return best, bestD, nil
}

// timed adapts f for bestOf, timing the whole call.
func timed(f func() error) func() (struct{}, time.Duration, error) {
	return func() (struct{}, time.Duration, error) {
		start := time.Now()
		err := f()
		return struct{}{}, time.Since(start), err
	}
}

// repeat runs op(0) … op(n−1) in order, stopping at the first error.
func repeat(n int, op func(i int) error) error {
	for i := range n {
		if err := op(i); err != nil {
			return err
		}
	}
	return nil
}

// nsPerOp times reps passes of n ops each and returns the fastest pass's
// mean ns per op.
func nsPerOp(reps, n int, op func(i int) error) (float64, error) {
	_, best, err := bestOf(reps, timed(func() error { return repeat(n, op) }))
	return float64(best.Nanoseconds()) / float64(n), err
}

// observe is the instrumented pass: it runs op(0) … op(n−1) with chained
// clock reads — one time.Now per op, each op timed from the previous read —
// so the clock read itself is the only instrumentation cost an op pays.
func observe(n int, op func(i int) error) (latencyDist, error) {
	var d stats.Distribution
	last := time.Now()
	for i := range n {
		if err := op(i); err != nil {
			return latencyDist{}, err
		}
		last = lap(&d, last)
	}
	return distSummary(&d), nil
}

// lap records the time since last into d and returns the new clock reading,
// the next op's start.
func lap(d *stats.Distribution, last time.Time) time.Time {
	now := time.Now()
	d.Add(float64(now.Sub(last).Nanoseconds()))
	return now
}

// measure times n ops with nsPerOp, then observes the same n ops: the
// best-of-reps mean per op and, from the separate pass, the latency shape.
func measure(reps, n int, op func(i int) error) (float64, latencyDist, error) {
	ns, err := nsPerOp(reps, n, op)
	if err != nil {
		return 0, latencyDist{}, err
	}
	lat, err := observe(n, op)
	return ns, lat, err
}

// latencyDist is the JSON shape of one per-operation latency distribution:
// exact moments plus bucketed percentiles from a stats.Distribution.
// Percentile fields carry the Distribution's documented ≈4.4% worst-case
// relative error; mean/std/min/max are exact. All values are nanoseconds.
type latencyDist struct {
	Count  int     `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	StdNs  float64 `json:"std_ns"`
	MinNs  float64 `json:"min_ns"`
	MaxNs  float64 `json:"max_ns"`
	P50Ns  float64 `json:"p50_ns"`
	P95Ns  float64 `json:"p95_ns"`
	P99Ns  float64 `json:"p99_ns"`
	P999Ns float64 `json:"p999_ns"`
}

// distSummary renders a Distribution into the artifact shape; an empty
// distribution yields the zero value, which omitzero drops from the JSON.
func distSummary(d *stats.Distribution) latencyDist {
	if d.Count() == 0 {
		return latencyDist{}
	}
	return latencyDist{
		Count:  d.Count(),
		MeanNs: d.Mean(),
		StdNs:  d.Std(),
		MinNs:  d.Min(),
		MaxNs:  d.Max(),
		P50Ns:  d.Percentile(50),
		P95Ns:  d.Percentile(95),
		P99Ns:  d.Percentile(99),
		P999Ns: d.Percentile(99.9),
	}
}

// drive runs run(0) … run(goroutines−1) concurrently, waits for all of them
// and returns their errors joined.
func drive(goroutines int, run func(g int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = run(g)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// widen appends n to an ascending width list when it is wider than all of
// them, so the host's full parallelism is always measured.
func widen(widths []int, n int) []int {
	if n > widths[len(widths)-1] {
		return append(widths, n)
	}
	return widths
}

// parallelSpeedup is the narrowest run's time over the widest's, reported
// as 1.0 on single-CPU hosts, where wider pools only measure their overhead.
func parallelSpeedup(narrowest, widest float64) float64 {
	if runtime.GOMAXPROCS(0) > 1 && widest > 0 {
		return narrowest / widest
	}
	return 1
}

// Shared fixtures.

// cellSessions is the session count of the reference cell every cell
// section runs.
func cellSessions(quick bool) int {
	if quick {
		return 240
	}
	return 1600
}

// cellConfig is the reference trust-aware cell: 12 honest and 6
// opportunist agents drawn from seed. Each call draws a fresh population.
func cellConfig(seed int64, sessions int) (market.Config, error) {
	agents, err := agent.NewPopulation(agent.PopConfig{Honest: 12, Opportunist: 6},
		rand.New(rand.NewSource(seed)))
	if err != nil {
		return market.Config{}, err
	}
	return market.Config{Seed: seed, Sessions: sessions, Agents: agents, Strategy: market.StrategyTrustAware}, nil
}

// complaintStream is the synthetic complaint stream the store sections
// file: n complaints striding over ids, so every peer both files and
// receives.
func complaintStream(ids []trust.PeerID, n int) []complaints.Complaint {
	stream := make([]complaints.Complaint, n)
	for k := range stream {
		stream[k] = complaints.Complaint{From: ids[(k*7)%len(ids)], About: ids[(k*13+3)%len(ids)]}
	}
	return stream
}

// posteriorDelta is the 64-row posterior delta the codec micro-costs run on.
func posteriorDelta() *trust.PosteriorDelta {
	ids := benchutil.StorePeers(64)
	rows := make([]trust.PosteriorRow, 0, 64)
	for i := range 64 {
		rows = append(rows, trust.PosteriorRow{
			Observer: ids[i%8], Subject: ids[8+(i/8)%8],
			Coop: float64(i % 5), Defect: float64(i % 3), Obs: uint64(1 + i%4),
		})
	}
	return trust.NewPosteriorDelta(1, rows)
}

// codecOps is how many back-to-back calls each codec micro-cost averages.
const codecOps = 2000

// codec returns delta's wire payload and its encode and decode as ops for
// the micro-costs. Encode cannot fail, so encode never returns an error.
func codec(kind trust.EvidenceKind, delta trust.EvidenceDelta) (payload []byte, encode, decode func(int) error) {
	payload = delta.Encode()
	encode = func(int) error { delta.Encode(); return nil }
	decode = func(int) error {
		_, err := trust.DecodeEvidence(kind, payload)
		return err
	}
	return payload, encode, decode
}
