// Command trustsim runs one marketplace scenario and prints the aggregate
// outcome: the quickest way to poke at population mixes, strategies and
// network conditions without writing code.
//
// Usage:
//
//	trustsim -honest 10 -backstabbers 4 -sessions 500 -strategy trust-aware -drop 0.02
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"

	"trustcoop/internal/agent"
	"trustcoop/internal/cli"
	"trustcoop/internal/goods"
	"trustcoop/internal/market"
)

func main() {
	cli.Exit("trustsim", run(os.Args[1:], os.Stdout))
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("trustsim", flag.ContinueOnError)
	honest := fs.Int("honest", 10, "honest agents")
	rational := fs.Int("rational", 0, "rational agents (defect only when gain exceeds stake)")
	opportunists := fs.Int("opportunists", 0, "opportunist agents")
	random := fs.Int("random", 0, "randomly defecting agents")
	backstabbers := fs.Int("backstabbers", 0, "backstabbing agents")
	stake := fs.Float64("stake", 2, "reputation stake per agent (currency units)")
	sessions := fs.Int("sessions", 400, "exchange sessions to run")
	stratName := fs.String("strategy", "trust-aware", "naive | safe-only | trust-aware")
	drop := fs.Float64("drop", 0, "per-message network loss probability")
	seed := fs.Int64("seed", 1, "random seed")
	items := fs.Int("items", 8, "items per bundle")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	var strat market.Strategy
	switch *stratName {
	case "naive":
		strat = market.StrategyNaive
	case "safe-only":
		strat = market.StrategySafeOnly
	case "trust-aware":
		strat = market.StrategyTrustAware
	default:
		return fmt.Errorf("unknown strategy %q", *stratName)
	}

	stakeAmount, err := goods.FromFloat("-stake", *stake)
	if err != nil {
		return err
	}
	if stakeAmount < 0 {
		return fmt.Errorf("-stake: negative amount %v (want ≥ 0)", *stake)
	}
	pop := agent.PopConfig{
		Honest:      *honest,
		Rational:    *rational,
		Opportunist: *opportunists,
		Random:      *random,
		Backstabber: *backstabbers,
		Stake:       stakeAmount,
	}
	agents, err := agent.NewPopulation(pop, rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}
	gen := goods.DefaultGenConfig()
	gen.Items = *items
	eng, err := market.NewEngine(market.Config{
		Seed:     *seed,
		Sessions: *sessions,
		Agents:   agents,
		Gen:      gen,
		Strategy: strat,
		DropRate: *drop,
	})
	if err != nil {
		return err
	}
	res, err := eng.Run()
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "strategy        %s  (population %d, sessions %d, drop %.1f%%)\n",
		strat, pop.Size(), *sessions, 100**drop)
	fmt.Fprintf(w, "trade rate      %.1f%%   (no-trade %d)\n", 100*res.TradeRate(), res.NoTrade)
	fmt.Fprintf(w, "completed       %d      (completion rate %.1f%%, safe plans %d)\n",
		res.Completed, 100*res.CompletionRate(), res.ModeSafe)
	fmt.Fprintf(w, "defected        %d      aborted by network %d\n", res.Defected, res.Aborted)
	fmt.Fprintf(w, "welfare         %v      trade volume %v\n", res.Welfare, res.TradeVolume)
	fmt.Fprintf(w, "honest losses   %v\n", res.HonestVictimLoss)
	if res.ConsumerExposure.Count() > 0 {
		fmt.Fprintf(w, "consumer exposure (planned): %s\n", res.ConsumerExposure.String())
	}
	if len(res.DefectionsBy) > 0 {
		names := make([]string, 0, len(res.DefectionsBy))
		for n := range res.DefectionsBy {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintln(w, "defections by behaviour:")
		for _, n := range names {
			fmt.Fprintf(w, "  %-12s %d\n", n, res.DefectionsBy[n])
		}
	}
	fmt.Fprintf(w, "network         sent %d delivered %d dropped %d\n",
		res.NetStats.Sent, res.NetStats.Delivered, res.NetStats.Dropped)
	return nil
}
