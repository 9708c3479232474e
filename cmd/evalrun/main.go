// Command evalrun regenerates the experiment tables (E1–E13) that stand in
// for the paper's evaluation. Each experiment's doc comment in
// internal/eval (the ids eval.IDs lists) says which claim of the paper it
// measures; docs/PERF.md records the reference output.
//
// Trials shard across a worker pool sized to GOMAXPROCS by default; tables
// are identical for every worker count (each trial draws from its own
// seed-derived random stream and results reduce in trial order).
//
// Usage:
//
//	evalrun [-exp E1,E3] [-seed 42] [-quick] [-csv] [-workers N] [-engines E] [-repstore sharded,async] [-gossip 16:ring] [-evidence posterior+columnar]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"trustcoop/internal/eval"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "evalrun:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("evalrun", flag.ContinueOnError)
	expFlag := fs.String("exp", "all", "comma-separated experiment ids (e.g. E1,E5) or 'all'")
	seed := fs.Int64("seed", 42, "random seed")
	quick := fs.Bool("quick", false, "reduced trial counts (for smoke runs)")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	workers := fs.Int("workers", 0, "trial worker pool size; 0 means GOMAXPROCS")
	engines := fs.Int("engines", 0, "concurrent sub-engines per sharded experiment cell; 0 means min(GOMAXPROCS, cell shard count) — pure parallelism, tables are identical for every value")
	repstore := fs.String("repstore", "", "restrict the reputation-backend experiments (E10) to these comma-separated complaint-store specs (e.g. sharded,async:sharded); empty runs the default portfolio")
	gossipSpec := fs.String("gossip", "", "cross-shard evidence gossip for the sharded-cell experiments (E2, E3, E6; topology/fanout also steer E11's, E12's and E13's sweeps, and E13 takes the period too), spec PERIOD[:TOPOLOGY[:FANOUT]] e.g. 16, 16:ring, 4:mesh:2, 8:ring2; empty or 'off' keeps shards isolated — enabling gossip changes the information structure and the affected table titles say so")
	evidence := fs.String("evidence", "", "evidence kind gossiping cells exchange, spec KIND[+OPTION...]: 'complaints' (default; the shared complaint model, which gossiping cells always run over the sharded backend — -repstore reaches only E10) or 'posterior' (per-agent Beta estimators gossiping posterior deltas); posterior options pick the export policy — 'posterior+columnar' (interned columnar codec), 'posterior+q6' (lossy fixed point, 6 fractional bits), 'posterior+top4' (top-4 subjects per export), 'posterior+conf0.7+eps0.5' (defer low-confidence subjects) — restricts E12's kind sweep and replaces E13's policy sweep; part of the experiment definition, shown in titles")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be ≥ 0 (0 means GOMAXPROCS), got %d", *workers)
	}
	if *engines < 0 {
		return fmt.Errorf("-engines must be ≥ 0 (0 means the default width), got %d", *engines)
	}

	ids := eval.IDs()
	if *expFlag != "all" {
		ids = nil
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(strings.ToUpper(id))
			if id != "" {
				ids = append(ids, id)
			}
		}
	}
	for _, id := range ids {
		tbl, err := eval.Run(id, eval.RunConfig{Seed: *seed, Quick: *quick, Workers: *workers, EnginesPerCell: *engines, RepStore: *repstore, Gossip: *gossipSpec, Evidence: *evidence})
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if *csv {
			fmt.Printf("# %s — %s\n%s\n", tbl.ID, tbl.Title, tbl.CSV())
			continue
		}
		if err := tbl.Fprint(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}
