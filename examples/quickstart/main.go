// Quickstart: schedule one exchange end to end — try fully safe first, fall
// back to trust-aware exposure bounds, and show what the consumer risks at
// every moment. This is the paper's §3 scenario in ~60 lines.
package main

import (
	"fmt"
	"io"
	"os"

	"trustcoop/internal/core"
	"trustcoop/internal/decision"
	"trustcoop/internal/exchange"
	"trustcoop/internal/goods"
	"trustcoop/internal/trust"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

// run plays the scenario and writes its report to w. The scenario is
// fixed, so any argument is an error rather than silently ignored.
func run(args []string, w io.Writer) error {
	if len(args) > 0 {
		return fmt.Errorf("takes no arguments, got %q", args)
	}
	// A seller offers three chapters of a report for 30 units total.
	bundle, err := goods.NewBundle(
		goods.Item{ID: "ch1", Cost: 6 * goods.Unit, Worth: 14 * goods.Unit},
		goods.Item{ID: "ch2", Cost: 8 * goods.Unit, Worth: 15 * goods.Unit},
		goods.Item{ID: "ch3", Cost: 10 * goods.Unit, Worth: 16 * goods.Unit},
	)
	if err != nil {
		return err
	}
	terms := exchange.Terms{Bundle: bundle, Price: 30 * goods.Unit}
	fmt.Fprintf(w, "terms: price %v, supplier gain %v, consumer gain %v\n",
		terms.Price, terms.SupplierGain(), terms.ConsumerGain())

	// In an isolated exchange no safe sequence exists (paper §2)…
	if _, err := exchange.ScheduleSafe(terms, exchange.Stakes{}, exchange.Options{}); err != nil {
		fmt.Fprintln(w, "isolated exchange:", err)
	}
	fmt.Fprintf(w, "minimal reputation stake for full safety: %v\n", exchange.MinimalStake(terms))

	// …but two partners who estimate each other as 80% reliable can agree
	// on a bounded-exposure schedule (paper §3). Trust estimates would come
	// from the reputation/trust modules; here we seed an oracle.
	truth := map[trust.PeerID]float64{"seller": 0.8, "buyer": 0.8}
	seller := core.Participant{
		ID:        "seller",
		Estimator: &trust.Oracle{Truth: truth},
		Policy:    decision.CARA{Alpha: 0.05},
	}
	buyer := core.Participant{
		ID:        "buyer",
		Estimator: &trust.Oracle{Truth: truth},
		Policy:    decision.RiskNeutral{},
	}
	res, err := core.Planner{}.PlanExchange(seller, buyer, terms)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%s plan (caps: supplier %v, consumer %v):\n", res.Mode, res.Caps.Supplier, res.Caps.Consumer)
	for i, step := range res.Plan.Steps {
		fmt.Fprintf(w, "%2d. %s\n", i+1, step)
	}
	fmt.Fprintf(w, "\nworst-case exposure: consumer %v, supplier %v\n",
		res.Plan.Report.MaxConsumerExposure, res.Plan.Report.MaxSupplierExposure)
	fmt.Fprintf(w, "trust-discounted gains: consumer %v, supplier %v\n",
		res.ExpectedConsumerGain, res.ExpectedSupplierGain)
	return nil
}
