package core

import (
	"errors"
	"math/rand"
	"testing"

	"trustcoop/internal/decision"
	"trustcoop/internal/exchange"
	"trustcoop/internal/goods"
	"trustcoop/internal/trust"
)

// twoItemTerms mirrors the worked example of internal/exchange:
// a(4,10), b(6,12), price 15; gains 5 and 7; minimal safe stake 4.
func twoItemTerms() exchange.Terms {
	return exchange.Terms{
		Bundle: goods.Bundle{Items: []goods.Item{
			{ID: "a", Cost: 4, Worth: 10},
			{ID: "b", Cost: 6, Worth: 12},
		}},
		Price: 15,
	}
}

func participant(id trust.PeerID, truth map[trust.PeerID]float64, stake goods.Money) Participant {
	return Participant{
		ID:        id,
		Estimator: &trust.Oracle{Truth: truth, Prior: 0.5},
		Policy:    decision.RiskNeutral{},
		Stake:     stake,
	}
}

func TestSafeModeNeedsNoTrust(t *testing.T) {
	// Stakes cover the minimal Δ = 4: the planner must return a safe plan
	// without consulting trust at all (nil estimators must be fine).
	sup := Participant{ID: "s", Policy: decision.Paranoid{}, Stake: 4}
	con := Participant{ID: "c", Policy: decision.Paranoid{}, Stake: 0}
	res, err := (Planner{}).PlanExchange(sup, con, twoItemTerms())
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeSafe {
		t.Fatalf("mode = %v, want safe", res.Mode)
	}
	if len(res.Plan.Steps) == 0 {
		t.Fatal("empty plan")
	}
}

func TestTrustAwareFallback(t *testing.T) {
	// No stakes: no safe sequence exists; mutual trust 0.8 with risk-neutral
	// policies gives caps 4·gain — plenty for the minimal exposure of 2.
	truth := map[trust.PeerID]float64{"s": 0.8, "c": 0.8}
	sup := participant("s", truth, 0)
	con := participant("c", truth, 0)
	res, err := (Planner{}).PlanExchange(sup, con, twoItemTerms())
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeTrustAware {
		t.Fatalf("mode = %v, want trust-aware", res.Mode)
	}
	if res.TrustInSupplier != 0.8 || res.TrustInConsumer != 0.8 {
		t.Errorf("trust = %g/%g, want 0.8/0.8", res.TrustInSupplier, res.TrustInConsumer)
	}
	// Risk-neutral caps: consumer gain 7 → Lc = 28; supplier gain 5 → Ls = 20.
	if res.Caps.Consumer != 28 || res.Caps.Supplier != 20 {
		t.Errorf("caps = %+v, want Ls=20 Lc=28", res.Caps)
	}
	// The plan respects the caps by construction.
	if res.Plan.Report.MaxConsumerExposure > res.Caps.Consumer {
		t.Error("consumer exposure exceeds cap")
	}
	if res.Plan.Report.MaxSupplierExposure > res.Caps.Supplier {
		t.Error("supplier exposure exceeds cap")
	}
	// Trust-discounted gains are positive for this friendly instance.
	if res.ExpectedConsumerGain <= 0 || res.ExpectedSupplierGain <= 0 {
		t.Errorf("expected gains %v/%v should be positive", res.ExpectedConsumerGain, res.ExpectedSupplierGain)
	}
}

func TestDistrustBlocksExchange(t *testing.T) {
	// Both sides distrust each other: caps collapse below the minimal
	// exposure and no agreement exists.
	truth := map[trust.PeerID]float64{"s": 0.05, "c": 0.05}
	sup := participant("s", truth, 0)
	con := participant("c", truth, 0)
	_, err := (Planner{}).PlanExchange(sup, con, twoItemTerms())
	if !errors.Is(err, ErrNoAgreement) {
		t.Fatalf("err = %v, want ErrNoAgreement", err)
	}
}

func TestAsymmetricTrustShiftsExposure(t *testing.T) {
	// One-sided trust still trades: the trusting party simply carries the
	// whole exposure. Supplier distrusts the consumer (Ls = 0) but the
	// consumer trusts the supplier: the consumer prepays every delivery.
	truth := map[trust.PeerID]float64{"s": 0.9, "c": 0.0}
	sup := participant("s", truth, 0)
	con := participant("c", truth, 0)
	res, err := (Planner{}).PlanExchange(sup, con, twoItemTerms())
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Report.MaxSupplierExposure > 0 {
		t.Errorf("supplier exposure = %v, want 0 (it trusts nobody)", res.Plan.Report.MaxSupplierExposure)
	}
	if res.Plan.Report.MaxConsumerExposure <= 0 {
		t.Error("consumer should carry the exposure")
	}
	// The mirror image: the supplier extends credit instead.
	truth = map[trust.PeerID]float64{"s": 0.0, "c": 0.9}
	res, err = (Planner{}).PlanExchange(participant("s", truth, 0), participant("c", truth, 0), twoItemTerms())
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Report.MaxConsumerExposure > 0 {
		t.Errorf("consumer exposure = %v, want 0", res.Plan.Report.MaxConsumerExposure)
	}
	if res.Plan.Report.MaxSupplierExposure <= 0 {
		t.Error("supplier should carry the exposure")
	}
}

func TestParanoidPolicyOnlyAcceptsSafe(t *testing.T) {
	truth := map[trust.PeerID]float64{"s": 0.99, "c": 0.99}
	sup := participant("s", truth, 0)
	con := participant("c", truth, 0)
	sup.Policy = decision.Paranoid{}
	con.Policy = decision.Paranoid{}
	if _, err := (Planner{}).PlanExchange(sup, con, twoItemTerms()); !errors.Is(err, ErrNoAgreement) {
		t.Fatalf("paranoid parties agreed to an unsafe exchange: %v", err)
	}
	// With stakes, the safe path doesn't consult the policies.
	sup.Stake = 4
	res, err := (Planner{}).PlanExchange(sup, con, twoItemTerms())
	if err != nil || res.Mode != ModeSafe {
		t.Fatalf("res=%+v err=%v, want safe plan", res, err)
	}
}

func TestZeroStakeGoesTrustAware(t *testing.T) {
	// Zero stakes on generated bundles, whose every cost is positive: the
	// isolated exchange is never safe, so a trusting pair must land on a
	// plan under the pure exposure band, whatever the bundle size.
	truth := map[trust.PeerID]float64{"s": 0.9, "c": 0.9}
	sup := participant("s", truth, 0)
	con := participant("c", truth, 0)
	rng := rand.New(rand.NewSource(5))
	gen := goods.DefaultGenConfig()
	for trial := 0; trial < 50; trial++ {
		gen.Items = 1 + rng.Intn(16)
		bundle, err := goods.Generate(gen, rng)
		if err != nil {
			t.Fatal(err)
		}
		terms := exchange.Terms{Bundle: bundle, Price: bundle.PriceAt(0.5)}
		res, err := (Planner{}).PlanExchange(sup, con, terms)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Mode != ModeTrustAware {
			t.Fatalf("trial %d: mode = %v, want trust-aware at zero stakes", trial, res.Mode)
		}
		if want := exchange.TrustAwareBands(res.Caps); res.Plan.Bands != want {
			t.Fatalf("trial %d: bands = %+v, want %+v", trial, res.Plan.Bands, want)
		}
	}
}

func TestRequireBeneficial(t *testing.T) {
	terms := twoItemTerms()
	terms.Price = 25 // above consumer worth 22
	truth := map[trust.PeerID]float64{"s": 0.99, "c": 0.99}
	sup := participant("s", truth, 0)
	con := participant("c", truth, 0)
	if _, err := (Planner{RequireBeneficial: true}).PlanExchange(sup, con, terms); !errors.Is(err, ErrNoAgreement) {
		t.Fatalf("unbeneficial terms accepted: %v", err)
	}
}

func TestInvalidTermsRejected(t *testing.T) {
	if _, err := (Planner{}).PlanExchange(Participant{}, Participant{}, exchange.Terms{}); err == nil {
		t.Error("empty terms accepted")
	}
	// The planner leaves validation to the scheduler, except where it
	// rejects unbeneficial terms first: either way invalid terms report the
	// validation error itself, not ErrNoAgreement.
	dup := twoItemTerms()
	dup.Bundle.Items[1].ID = "a"
	negPrice := twoItemTerms()
	negPrice.Price = -1 // the consumer's gain 23 > 0, the supplier's < 0
	overpriced := twoItemTerms()
	overpriced.Price = 25
	overpriced.Bundle.Items[0].Cost = -1
	for _, terms := range []exchange.Terms{dup, negPrice, overpriced} {
		want := terms.Validate()
		if want == nil {
			t.Fatalf("terms %+v are valid", terms)
		}
		for _, pl := range []Planner{{}, {RequireBeneficial: true}} {
			_, err := pl.PlanExchange(participant("s", nil, 0), participant("c", nil, 0), terms)
			if err == nil || err.Error() != want.Error() || errors.Is(err, ErrNoAgreement) {
				t.Errorf("RequireBeneficial=%v, terms %+v: err = %v, want %v", pl.RequireBeneficial, terms, err, want)
			}
		}
	}
}

func TestModeString(t *testing.T) {
	if ModeSafe.String() != "safe" || ModeTrustAware.String() != "trust-aware" {
		t.Error("mode labels")
	}
}

func TestSafeInfeasiblePlanUsesExposureBand(t *testing.T) {
	// Stake 3 is one short of the minimal Δ = 4, so no safe sequence exists.
	// The safety band at those stakes is then unschedulable under any caps,
	// and the planner schedules under the pure exposure band.
	truth := map[trust.PeerID]float64{"s": 0.9, "c": 0.9}
	sup := participant("s", truth, 3)
	con := participant("c", truth, 0)
	stakes := exchange.Stakes{Supplier: 3}
	if _, err := exchange.ScheduleSafe(twoItemTerms(), stakes, exchange.Options{}); !errors.Is(err, exchange.ErrNoSafeSequence) {
		t.Fatalf("ScheduleSafe err = %v, want ErrNoSafeSequence", err)
	}
	res, err := (Planner{}).PlanExchange(sup, con, twoItemTerms())
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeTrustAware {
		t.Fatalf("mode = %v, want trust-aware", res.Mode)
	}
	if want := exchange.TrustAwareBands(res.Caps); res.Plan.Bands != want {
		t.Errorf("bands = %+v, want %+v", res.Plan.Bands, want)
	}
}
