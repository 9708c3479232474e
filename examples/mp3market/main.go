// mp3market: the paper's P2P file-trading scenario. Each round a random
// peer offers a track (chunked into pieces) to another for money; the buyer
// consults the complaint record before accepting, the sale is scheduled
// with the trust-aware planner, and victims file complaints about cheaters
// into a shared P-Grid — the full Aberer–Despotovic deployment of
// reference [2].
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
	"trustcoop/internal/pgrid"
	"trustcoop/internal/trust"
	"trustcoop/internal/trust/complaints"
)

const (
	numPeers  = 8
	numRounds = 40
	cheaters  = 2 // peers that take the money and keep the tracks
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mp3market:", err)
		os.Exit(1)
	}
}

// run plays the scenario and writes its report to w. The scenario is
// fixed, so any argument is an error rather than silently ignored.
func run(args []string, w io.Writer) error {
	if len(args) > 0 {
		return fmt.Errorf("takes no arguments, got %q", args)
	}
	grid, err := pgrid.New(pgrid.Config{Peers: 64, Seed: 2})
	if err != nil {
		return err
	}
	store := &pgrid.ComplaintStore{Grid: grid, Replicas: 3}

	ids := make([]trust.PeerID, numPeers)
	for i := range ids {
		ids[i] = trust.PeerID(fmt.Sprintf("peer%d", i))
	}
	assessor := complaints.Assessor{Store: store, Population: ids}

	completed, cheated, refused := 0, 0, 0

	rng := rand.New(rand.NewSource(99))
	planner := core.Planner{}
	for range numRounds {
		sellerIdx := rng.Intn(numPeers)
		buyerIdx := rng.Intn(numPeers - 1)
		if buyerIdx >= sellerIdx {
			buyerIdx++
		}
		seller, buyer := ids[sellerIdx], ids[buyerIdx]

		// A track chunked into 4 pieces; serving cost per piece, value to
		// the buyer above it.
		gen := goods.GenConfig{Items: 4, Dist: goods.Equal, MeanCost: 2 * goods.Unit, MarginMin: 0.5, MarginMax: 0.5}
		bundle, err := goods.Generate(gen, rng)
		if err != nil {
			return err
		}
		terms := exchange.Terms{Bundle: bundle, Price: bundle.PriceAt(0.5)}

		// The buyer consults the complaint record before accepting: the
		// paper's decision module in action.
		pSeller, err := assessor.Probability(seller)
		if err != nil || pSeller < 0.75 {
			refused++
			continue
		}
		pBuyer, err := assessor.Probability(buyer)
		if err != nil {
			return err
		}
		res, err := planner.PlanExchange(
			core.Participant{ID: seller, Estimator: &trust.Oracle{Truth: map[trust.PeerID]float64{buyer: pBuyer}}, Policy: decision.RiskNeutral{}},
			core.Participant{ID: buyer, Estimator: &trust.Oracle{Truth: map[trust.PeerID]float64{seller: pSeller}}, Policy: decision.RiskNeutral{}},
			terms,
		)
		if err != nil {
			refused++
			continue
		}

		// Execute: cheating sellers defect mid-plan; the victim complains.
		if sellerIdx < cheaters && len(res.Plan.Steps) > 2 {
			cheated++
			if err := store.File(complaints.Complaint{From: buyer, About: seller}); err != nil {
				return err
			}
			continue
		}
		completed++
	}

	fmt.Fprintf(w, "rounds %d: completed %d, cheated %d, refused-by-trust %d\n",
		numRounds, completed, cheated, refused)
	ranked, err := assessor.SortByScore(ids)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "most-complained-about peers (cheaters should lead):")
	for i, p := range ranked[:4] {
		prob, err := assessor.Probability(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %d. %-7s trust %.2f\n", i+1, p, prob)
	}
	return nil
}
