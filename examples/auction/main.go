// auction: escrowless settlement for an eBay-style marketplace — the
// paper's introductory example. The same auction population settles under
// the three strategies (pay-upfront, safe-only, trust-aware) so the
// trade-off the paper argues for is visible side by side: naive settlement
// maximises trade but hands cheaters the margin; safe-only loses most
// trades; trust-aware keeps nearly all the volume at a fraction of the
// losses.
package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"

	"trustcoop/internal/agent"
	"trustcoop/internal/goods"
	"trustcoop/internal/market"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "auction:", err)
		os.Exit(1)
	}
}

// run plays the scenario and writes its report to w. The scenario is
// fixed, so any argument is an error rather than silently ignored.
func run(args []string, w io.Writer) error {
	if len(args) > 0 {
		return fmt.Errorf("takes no arguments, got %q", args)
	}
	fmt.Fprintln(w, "auction settlement: 16 honest traders, 4 opportunists, 2 backstabbers")
	fmt.Fprintln(w, "300 auctions each; bundles of 6 lots, Pareto-priced")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s %10s %10s %10s %12s\n", "strategy", "trade", "completed", "welfare", "honest loss")

	for _, strat := range []market.Strategy{market.StrategyNaive, market.StrategySafeOnly, market.StrategyTrustAware} {
		agents, err := agent.NewPopulation(agent.PopConfig{
			Honest:      16,
			Opportunist: 4,
			Backstabber: 2,
			Stake:       3 * goods.Unit,
		}, rand.New(rand.NewSource(5)))
		if err != nil {
			return err
		}
		gen := goods.DefaultGenConfig()
		gen.Items = 6
		gen.Dist = goods.Pareto
		eng, err := market.NewEngine(market.Config{
			Seed:     5,
			Sessions: 300,
			Agents:   agents,
			Gen:      gen,
			Strategy: strat,
		})
		if err != nil {
			return err
		}
		res, err := eng.Run()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %9.1f%% %9.1f%% %10.0f %12.0f\n",
			strat,
			100*res.TradeRate(),
			100*res.CompletionRate(),
			res.Welfare.Float64(),
			res.HonestVictimLoss.Float64(),
		)
	}
	fmt.Fprintln(w, "\ntrust-aware should sit near naive on trade volume and near")
	fmt.Fprintln(w, "safe-only on honest losses — the paper's core claim.")
	return nil
}
