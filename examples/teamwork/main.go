// teamwork: the paper's motivating mobile-teamwork scenario. Team members
// exchange services (design, code, review — each divisible into milestones)
// for budget transfers. Trust is computed with the Mui et al. witness model
// [3]: members who never worked together rely on colleagues' experiences.
// The run shows exchanges growing from small safe trades to large
// trust-aware contracts as evidence accumulates.
package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"

	"trustcoop/internal/core"
	"trustcoop/internal/decision"
	"trustcoop/internal/exchange"
	"trustcoop/internal/goods"
	"trustcoop/internal/trust"
	"trustcoop/internal/trust/mui"
)

type member struct {
	id       trust.PeerID
	reliable bool // ground truth: does this member deliver?
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "teamwork:", err)
		os.Exit(1)
	}
}

// run plays the scenario and writes its report to w. The scenario is
// fixed, so any argument is an error rather than silently ignored.
func run(args []string, w io.Writer) error {
	if len(args) > 0 {
		return fmt.Errorf("takes no arguments, got %q", args)
	}
	team := []member{
		{"ana", true}, {"ben", true}, {"chloe", true},
		{"dev", true}, {"eve", false}, // eve takes budget and ghosts
	}
	net := mui.NewNetwork(mui.Config{MaxDepth: 2, MaxWitnesses: 8})
	rng := rand.New(rand.NewSource(7))
	planner := core.Planner{}

	contracts, refused, burned := 0, 0, 0
	for round := 0; round < 120; round++ {
		s := team[rng.Intn(len(team))]
		c := team[rng.Intn(len(team))]
		if s.id == c.id {
			continue
		}
		// A service contract: 3 milestones, budget split midway.
		gen := goods.GenConfig{Items: 3, Dist: goods.Uniform, MeanCost: 4 * goods.Unit, MarginMin: 0.3, MarginMax: 0.8}
		bundle, err := goods.Generate(gen, rng)
		if err != nil {
			return err
		}
		terms := exchange.Terms{Bundle: bundle, Price: bundle.PriceAt(0.5)}

		res, err := planner.PlanExchange(
			core.Participant{ID: s.id, Estimator: net.View(s.id), Policy: decision.CARA{Alpha: 0.3}},
			core.Participant{ID: c.id, Estimator: net.View(c.id), Policy: decision.CARA{Alpha: 0.3}},
			terms,
		)
		if err != nil {
			refused++
			continue
		}
		contracts++

		// Execute: unreliable members defect after the first milestone.
		completed := s.reliable
		if !completed {
			burned++
		}
		net.Record(c.id, s.id, trust.Outcome{Cooperated: completed})
		net.Record(s.id, c.id, trust.Outcome{Cooperated: true})
		_ = res
	}

	fmt.Fprintf(w, "rounds 120: contracts %d, refused (insufficient trust) %d, burned by eve %d\n",
		contracts, refused, burned)
	fmt.Fprintln(w, "\nwho trusts whom after 120 rounds (Mui witness model):")
	fmt.Fprintf(w, "%-8s", "")
	for _, to := range team {
		fmt.Fprintf(w, "%8s", to.id)
	}
	fmt.Fprintln(w)
	for _, from := range team {
		fmt.Fprintf(w, "%-8s", from.id)
		for _, to := range team {
			if from.id == to.id {
				fmt.Fprintf(w, "%8s", "-")
				continue
			}
			fmt.Fprintf(w, "%8.2f", net.Estimate(from.id, to.id).P)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\neve's column should be low everywhere — including for members")
	fmt.Fprintln(w, "who never hired her, thanks to witness reports.")
	return nil
}
