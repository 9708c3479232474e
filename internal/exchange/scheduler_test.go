package exchange

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"trustcoop/internal/goods"
)

// --- the worked example from terms_test.go, scheduled ---

func TestIsolatedExchangeNeverSafe(t *testing.T) {
	// Paper §2: "in isolated exchanges a safe sequence cannot exist".
	_, err := ScheduleSafe(twoItemTerms(), Stakes{}, Options{})
	if !errors.Is(err, ErrNoSafeSequence) {
		t.Fatalf("err = %v, want ErrNoSafeSequence", err)
	}
}

func TestIsolatedExchangeRandomisedNeverSafe(t *testing.T) {
	// Property: with all item costs strictly positive and no stakes, no safe
	// sequence exists, whatever the valuations.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		items := make([]goods.Item, n)
		for i := range items {
			cost := goods.Money(1 + rng.Intn(100))
			items[i] = goods.Item{ID: fmt.Sprintf("i%d", i), Cost: cost, Worth: cost + goods.Money(rng.Intn(100))}
		}
		b := goods.Bundle{Items: items}
		tm := Terms{Bundle: b, Price: b.PriceAt(0.5)}
		if _, err := ScheduleSafe(tm, Stakes{}, Options{}); !errors.Is(err, ErrNoSafeSequence) {
			t.Fatalf("trial %d: isolated exchange scheduled safely: %+v", trial, items)
		}
	}
}

func TestZeroCostItemEnablesSafeIsolatedExchange(t *testing.T) {
	// A free final chunk (e.g. a digital sample) is the only way an isolated
	// exchange can be fully safe — and only when that chunk is worth enough
	// to the consumer to cover the supplier's whole remaining cost
	// (Vc(R_{k+1}) ≥ Vs(R_k) at every step).
	b := goods.Bundle{Items: []goods.Item{
		{ID: "paid", Cost: 10, Worth: 30},
		{ID: "free", Cost: 0, Worth: 15},
	}}
	tm := Terms{Bundle: b, Price: 20}
	plan, err := ScheduleSafe(tm, Stakes{}, Options{})
	if err != nil {
		t.Fatalf("ScheduleSafe: %v", err)
	}
	dels := plan.Steps.Deliveries()
	if dels[len(dels)-1].ID != "free" {
		t.Errorf("last delivery = %s, want the free item", dels[len(dels)-1].ID)
	}
}

func TestStakesEnableSafeExchange(t *testing.T) {
	tm := twoItemTerms()
	plan, err := ScheduleSafe(tm, Stakes{Supplier: 4}, Options{})
	if err != nil {
		t.Fatalf("ScheduleSafe with Δ=4: %v", err)
	}
	// Hand-derived schedule: pay 5, deliver b, pay 10, deliver a.
	want := Sequence{
		{Kind: StepPay, Amount: 5},
		{Kind: StepDeliver, Item: goods.Item{ID: "b", Cost: 6, Worth: 12}},
		{Kind: StepPay, Amount: 10},
		{Kind: StepDeliver, Item: goods.Item{ID: "a", Cost: 4, Worth: 10}},
	}
	if len(plan.Steps) != len(want) {
		t.Fatalf("steps = %v, want %v", plan.Steps, want)
	}
	for i := range want {
		if plan.Steps[i] != want[i] {
			t.Errorf("step %d = %v, want %v", i, plan.Steps[i], want[i])
		}
	}
	if plan.Report.MaxConsumerExposure != 5 {
		t.Errorf("MaxConsumerExposure = %v, want 5", plan.Report.MaxConsumerExposure)
	}
	if plan.Report.MaxSupplierExposure != 1 {
		t.Errorf("MaxSupplierExposure = %v, want 1", plan.Report.MaxSupplierExposure)
	}
	// A safe plan never tempts either party beyond its stake.
	if plan.Report.MaxSupplierTemptation > 4 {
		t.Errorf("supplier temptation %v exceeds stake", plan.Report.MaxSupplierTemptation)
	}
	if plan.Report.MaxConsumerTemptation > 0 {
		t.Errorf("consumer temptation %v exceeds stake", plan.Report.MaxConsumerTemptation)
	}
}

func TestMinimalStakeWorkedExample(t *testing.T) {
	tm := twoItemTerms()
	if got := MinimalStake(tm); got != 4 {
		t.Fatalf("MinimalStake = %v, want 4 (cost of cheapest item)", got)
	}
	if _, err := ScheduleSafe(tm, Stakes{Supplier: 3}, Options{}); !errors.Is(err, ErrNoSafeSequence) {
		t.Error("stakes one below minimum should fail")
	}
	if _, err := ScheduleSafe(tm, Stakes{Supplier: 2, Consumer: 2}, Options{}); err != nil {
		t.Errorf("split stakes totalling the minimum should succeed: %v", err)
	}
}

func TestMinimalStakeIsTightRandomised(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 150; trial++ {
		tm := randomBeneficialTerms(rng, 1+rng.Intn(6), false)
		min := MinimalStake(tm)
		if _, err := ScheduleSafe(tm, Stakes{Supplier: min}, Options{}); err != nil {
			t.Fatalf("trial %d: stakes=MinimalStake(%v) infeasible: %v\nterms: %+v", trial, min, err, tm)
		}
		if min > 0 {
			if _, err := ScheduleSafe(tm, Stakes{Supplier: min - 1}, Options{}); !errors.Is(err, ErrNoSafeSequence) {
				t.Fatalf("trial %d: stakes=min-1 unexpectedly feasible (min=%v)\nterms: %+v", trial, min, tm)
			}
		}
	}
}

// TestScheduleSafeIntoMatchesSchedule holds ScheduleSafeInto to Schedule
// under the safe bands, at the minimal stake (feasible) and one below it
// (infeasible): the same plan, ErrNoSafeSequence exactly where Schedule
// proves no feasible sequence, the plan written into a dirty destination
// with room for it, and that destination untouched when no plan returns.
func TestScheduleSafeIntoMatchesSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	planned, refused := 0, 0
	for trial := 0; trial < 300; trial++ {
		tm := randomBeneficialTerms(rng, 1+rng.Intn(8), trial%2 == 0)
		stakes := Stakes{Supplier: MinimalStake(tm)}
		if trial%3 == 2 && stakes.Supplier > 0 {
			stakes.Supplier--
		}
		dst := make(Sequence, 2*tm.Bundle.Len()+1)
		for i := range dst {
			dst[i] = Step{Kind: StepPay, Amount: goods.Money(-1 - i)}
		}
		dirty := slices.Clone(dst)
		plan, err := ScheduleSafeInto(dst[:0], tm, stakes, Options{})
		want, wantErr := Schedule(tm, SafeBands(stakes), Options{})
		if errors.Is(wantErr, ErrNoFeasibleSequence) {
			if !errors.Is(err, ErrNoSafeSequence) {
				t.Fatalf("trial %d: err = %v, want ErrNoSafeSequence (Schedule: %v)", trial, err, wantErr)
			}
		} else if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("trial %d: err = %v, want %v", trial, err, wantErr)
		}
		if err != nil {
			refused++
			if !slices.Equal(dst, dirty) {
				t.Fatalf("trial %d: failed call wrote into its destination: %v", trial, dst)
			}
			continue
		}
		planned++
		if !slices.Equal(plan.Steps, want.Steps) || plan.Report != want.Report || plan.Bands != want.Bands {
			t.Fatalf("trial %d: plan = %+v, want %+v", trial, plan, want)
		}
		if &plan.Steps[0] != &dst[0] {
			t.Fatalf("trial %d: plan of %d steps not written into a destination of capacity %d", trial, len(plan.Steps), cap(dst))
		}
	}
	if planned < 100 || refused < 50 {
		t.Errorf("%d plans and %d refusals; the trials no longer cover both outcomes", planned, refused)
	}
}

func TestTrustAwareWorkedExample(t *testing.T) {
	tm := twoItemTerms()
	plan, err := ScheduleTrustAware(tm, ExposureCaps{Supplier: 5, Consumer: 5}, Options{})
	if err != nil {
		t.Fatalf("ScheduleTrustAware: %v", err)
	}
	// Ascending-cost order: a first; lazy payments keep the consumer at
	// zero exposure and the supplier exactly at its cap.
	if plan.Report.MaxConsumerExposure != 0 {
		t.Errorf("MaxConsumerExposure = %v, want 0", plan.Report.MaxConsumerExposure)
	}
	if plan.Report.MaxSupplierExposure != 5 {
		t.Errorf("MaxSupplierExposure = %v, want 5", plan.Report.MaxSupplierExposure)
	}
	dels := plan.Steps.Deliveries()
	if dels[0].ID != "a" {
		t.Errorf("first delivery = %s, want the cheap item", dels[0].ID)
	}
}

func TestMinimalExposureWorkedExample(t *testing.T) {
	tm := twoItemTerms()
	if got := MinimalExposure(tm); got != 2 {
		t.Fatalf("MinimalExposure = %v, want 2", got)
	}
	if _, err := ScheduleTrustAware(tm, ExposureCaps{Supplier: 2, Consumer: 2}, Options{}); err != nil {
		t.Errorf("caps at the minimum should succeed: %v", err)
	}
	if _, err := ScheduleTrustAware(tm, ExposureCaps{Supplier: 1, Consumer: 1}, Options{}); !errors.Is(err, ErrNoFeasibleSequence) {
		t.Error("caps below the minimum should fail")
	}
}

func TestMinimalExposureIsTightRandomised(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 150; trial++ {
		tm := randomBeneficialTerms(rng, 1+rng.Intn(6), false)
		min := MinimalExposure(tm)
		caps := ExposureCaps{Supplier: min, Consumer: min}
		if _, err := ScheduleTrustAware(tm, caps, Options{}); err != nil {
			t.Fatalf("trial %d: caps=MinimalExposure(%v) infeasible: %v\nterms: %+v", trial, min, err, tm)
		}
		if min > 0 {
			caps = ExposureCaps{Supplier: min - 1, Consumer: min - 1}
			if _, err := ScheduleTrustAware(tm, caps, Options{}); !errors.Is(err, ErrNoFeasibleSequence) {
				t.Fatalf("trial %d: caps=min-1 unexpectedly feasible (min=%v)\nterms: %+v", trial, min, tm)
			}
		}
	}
}

// --- cross-validation against a permutation oracle ---

// oracleFeasible enumerates every delivery permutation and asks PlanForOrder
// whether any admits a valid payment plan. Independent of the subset-memo
// search and the greedy orders.
func oracleFeasible(t Terms, b Bands) bool {
	items := t.Bundle.Items
	idx := make([]int, len(items))
	for i := range idx {
		idx[i] = i
	}
	var feasible bool
	var permute func(k int)
	permute = func(k int) {
		if feasible {
			return
		}
		if k == len(idx) {
			order := make([]goods.Item, len(idx))
			for i, j := range idx {
				order[i] = items[j]
			}
			if _, err := PlanForOrder(t, b, order, Options{}); err == nil {
				feasible = true
			}
			return
		}
		for i := k; i < len(idx); i++ {
			idx[k], idx[i] = idx[i], idx[k]
			permute(k + 1)
			idx[k], idx[i] = idx[i], idx[k]
		}
	}
	permute(0)
	return feasible
}

// randomBeneficialTerms builds random terms with positive gains for both
// parties. When negSurplus is true, some items may be worth less than they
// cost.
func randomBeneficialTerms(rng *rand.Rand, n int, negSurplus bool) Terms {
	items := make([]goods.Item, n)
	for i := range items {
		cost := goods.Money(rng.Intn(50))
		var worth goods.Money
		if negSurplus && rng.Intn(3) == 0 {
			worth = goods.Money(rng.Intn(int(cost) + 1))
		} else {
			worth = cost + goods.Money(rng.Intn(60))
		}
		items[i] = goods.Item{ID: fmt.Sprintf("i%d", i), Cost: cost, Worth: worth}
	}
	b := goods.Bundle{Items: items}
	price := b.PriceAt(0.3 + rng.Float64()*0.4)
	if price < 0 {
		price = 0
	}
	return Terms{Bundle: b, Price: price}
}

// randomSlack draws a stake or cap that is zero one time in three, so the
// market's real case (zero stakes, every cost positive: the isolated
// exchange) and zero-cap exposure bands come up often, not once in a
// thousand draws.
func randomSlack(rng *rand.Rand) goods.Money {
	if rng.Intn(3) == 0 {
		return 0
	}
	return goods.Money(1 + rng.Intn(39))
}

func randomBands(rng *rand.Rand) Bands {
	stakes := func() Stakes { return Stakes{Supplier: randomSlack(rng), Consumer: randomSlack(rng)} }
	caps := func() ExposureCaps { return ExposureCaps{Supplier: randomSlack(rng), Consumer: randomSlack(rng)} }
	switch rng.Intn(3) {
	case 0:
		return SafeBands(stakes())
	case 1:
		return TrustAwareBands(caps())
	default:
		return CombinedBands(stakes(), caps())
	}
}

// OracleFeasible exposes the permutation oracle to the external fuzz tests.
var OracleFeasible = oracleFeasible

func TestScheduleMatchesPermutationOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const trials = 400
	boundary := 0
	for trial := 0; trial < trials; trial++ {
		tm := randomBeneficialTerms(rng, 1+rng.Intn(8), trial%2 == 1)
		bands := randomBands(rng)
		want := oracleFeasible(tm, bands)
		plan, err := Schedule(tm, bands, Options{})
		got := err == nil
		if errors.Is(err, ErrBudgetExhausted) {
			t.Fatalf("trial %d: budget exhausted on a %d-item bundle", trial, tm.Bundle.Len())
		}
		if got != want {
			t.Fatalf("trial %d: Schedule=%v oracle=%v\nbands: %+v\nterms: %+v\nerr: %v",
				trial, got, want, bands, tm, err)
		}
		if got {
			if _, err := Validate(tm, bands, plan.Steps); err != nil {
				t.Fatalf("trial %d: schedule failed independent validation: %v", trial, err)
			}
		}
		if errors.Is(err, errNoLastDelivery) {
			boundary++
		}
	}
	// The last-delivery proof must have been checked against the oracle on
	// a real share of the trials, not on a handful.
	if boundary < trials/10 {
		t.Errorf("boundary proof fired on %d of %d trials, want ≥ %d", boundary, trials, trials/10)
	}
}

// TestSafeInfeasibleImpliesCombinedInfeasible is the fact the planner
// relies on to skip the combined band: the combined band only narrows the
// safety band at the same stakes, so once ScheduleSafe proves no safe
// sequence exists, no caps can make the combination schedulable.
func TestSafeInfeasibleImpliesCombinedInfeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const trials = 400
	proven := 0
	for trial := 0; trial < trials; trial++ {
		tm := randomBeneficialTerms(rng, 1+rng.Intn(8), trial%2 == 1)
		stakes := Stakes{Supplier: randomSlack(rng), Consumer: randomSlack(rng)}
		if _, err := ScheduleSafe(tm, stakes, Options{}); !errors.Is(err, ErrNoSafeSequence) {
			continue
		}
		proven++
		for _, caps := range []ExposureCaps{
			{Supplier: goods.Money(rng.Intn(80)), Consumer: goods.Money(rng.Intn(80))},
			{},
			{Supplier: goods.Unlimited, Consumer: goods.Unlimited},
		} {
			if _, err := Schedule(tm, CombinedBands(stakes, caps), Options{}); !errors.Is(err, ErrNoFeasibleSequence) {
				t.Fatalf("trial %d: safe infeasible at %+v but combined with caps %+v gave err=%v\nterms: %+v",
					trial, stakes, caps, err, tm)
			}
		}
	}
	if proven < trials/4 {
		t.Errorf("only %d of %d trials were safe-infeasible, want ≥ %d", proven, trials, trials/4)
	}
}

// TestScheduledPlansAlwaysValidate: every plan the scheduler returns passes
// the replay, and the Report its construction accumulated equals the
// replay's field for field. The inputs cover both payment policies, a
// quantum, all three band families, math.MaxInt64 and Unlimited slacks,
// caller-chosen orders through PlanForOrder, and plans built on the exact
// search's order because every heuristic order failed.
func TestScheduledPlansAlwaysValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	check := func(trial int, how string, tm Terms, bands Bands, plan Plan) {
		t.Helper()
		rep, err := Validate(tm, bands, plan.Steps)
		if err != nil {
			t.Fatalf("trial %d, %s: %v", trial, how, err)
		}
		if rep != plan.Report {
			t.Fatalf("trial %d, %s: constructed report %+v, replay %+v\nterms %+v bands %+v steps %v",
				trial, how, plan.Report, rep, tm, bands, plan.Steps)
		}
	}
	var scheduled, boundary, ordered, searched int
	for trial := 0; trial < 3000; trial++ {
		tm := randomBeneficialTerms(rng, 1+rng.Intn(10), trial%2 == 1)
		bands := randomBands(rng)
		if rng.Intn(4) == 0 {
			// A boundary slack on one side of each family, the other side
			// unchanged.
			huge := []goods.Money{math.MaxInt64, goods.Unlimited}[rng.Intn(2)]
			if rng.Intn(2) == 0 {
				bands.Stakes.Supplier, bands.Caps.Consumer = huge, huge
			} else {
				bands.Stakes.Consumer, bands.Caps.Supplier = huge, huge
			}
			boundary++
		}
		var opt Options
		if rng.Intn(2) == 0 {
			opt.Policy = PayEager
		}
		if rng.Intn(3) == 0 {
			opt.Quantum = goods.Money(1 + rng.Intn(7))
		}
		if plan, err := Schedule(tm, bands, opt); err == nil {
			check(trial, "Schedule", tm, bands, plan)
			scheduled++
			if heuristicOrdersFail(tm, bands, opt) {
				searched++
			}
		}
		order := append([]goods.Item(nil), tm.Bundle.Items...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		if plan, err := PlanForOrder(tm, bands, order, opt); err == nil {
			check(trial, "PlanForOrder", tm, bands, plan)
			ordered++
		}
	}
	t.Logf("%d plans scheduled (%d trials with boundary slacks), %d by caller-chosen order, %d on the exact search's order",
		scheduled, boundary, ordered, searched)
	if scheduled < 1000 || boundary < 500 || ordered < 500 || searched < 50 {
		t.Errorf("%d plans scheduled (%d trials with boundary slacks), %d by caller-chosen order, %d on the exact search's order: the property proves little",
			scheduled, boundary, ordered, searched)
	}
}

// heuristicOrdersFail reports whether every order of Schedule's portfolio
// for the bands admits no plan, so a plan Schedule returns was built on the
// exact search's order.
func heuristicOrdersFail(tm Terms, bands Bands, opt Options) bool {
	sc := getScratch()
	defer putScratch(sc)
	for _, kind := range candidateKinds(bands) {
		order := append([]goods.Item(nil), sc.orderOf(kind, tm.Bundle)...)
		if _, err := PlanForOrder(tm, bands, order, opt); err == nil {
			return false
		}
	}
	return true
}

func TestLazyNeverWorseThanEagerForConsumer(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 200; trial++ {
		tm := randomBeneficialTerms(rng, 1+rng.Intn(6), false)
		bands := randomBands(rng)
		lazy, errL := Schedule(tm, bands, Options{Policy: PayLazy})
		eager, errE := Schedule(tm, bands, Options{Policy: PayEager})
		if (errL == nil) != (errE == nil) {
			t.Fatalf("trial %d: lazy err=%v, eager err=%v — policies must not change feasibility", trial, errL, errE)
		}
		if errL != nil {
			continue
		}
		if lazy.Report.MaxConsumerExposure > eager.Report.MaxConsumerExposure {
			t.Fatalf("trial %d: lazy consumer exposure %v > eager %v",
				trial, lazy.Report.MaxConsumerExposure, eager.Report.MaxConsumerExposure)
		}
		if lazy.Report.MaxSupplierExposure < eager.Report.MaxSupplierExposure {
			t.Fatalf("trial %d: lazy supplier exposure %v < eager %v",
				trial, lazy.Report.MaxSupplierExposure, eager.Report.MaxSupplierExposure)
		}
	}
}

func TestExposureCapsAreRespectedByConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		tm := randomBeneficialTerms(rng, 1+rng.Intn(8), false)
		caps := ExposureCaps{
			Supplier: goods.Money(rng.Intn(100)),
			Consumer: goods.Money(rng.Intn(100)),
		}
		plan, err := ScheduleTrustAware(tm, caps, Options{})
		if err != nil {
			continue
		}
		if plan.Report.MaxSupplierExposure > caps.Supplier {
			t.Fatalf("trial %d: supplier exposure %v exceeds cap %v", trial, plan.Report.MaxSupplierExposure, caps.Supplier)
		}
		if plan.Report.MaxConsumerExposure > caps.Consumer {
			t.Fatalf("trial %d: consumer exposure %v exceeds cap %v", trial, plan.Report.MaxConsumerExposure, caps.Consumer)
		}
	}
}

func TestLargeBundleSchedulesQuadratically(t *testing.T) {
	// 300 items must schedule without ever invoking the exact search.
	rng := rand.New(rand.NewSource(43))
	tm := randomBeneficialTerms(rng, 300, false)
	caps := ExposureCaps{Supplier: MinimalExposure(tm), Consumer: MinimalExposure(tm)}
	plan, err := ScheduleTrustAware(tm, caps, Options{})
	if err != nil {
		t.Fatalf("large bundle: %v", err)
	}
	if got := len(plan.Steps.Deliveries()); got != 300 {
		t.Fatalf("deliveries = %d, want 300", got)
	}
}

func TestQuantumPayments(t *testing.T) {
	tm := twoItemTerms()
	plan, err := ScheduleSafe(tm, Stakes{Supplier: 4}, Options{Quantum: 4})
	if err != nil {
		t.Fatalf("quantised schedule: %v", err)
	}
	// Lazy would pay 5 then 10; the quantum rounds the first payment up to 8
	// (band cap 9 permits it) while the second stays exact at 7 because the
	// cap (15) forbids rounding to 8.
	want := Sequence{
		{Kind: StepPay, Amount: 8},
		{Kind: StepDeliver, Item: goods.Item{ID: "b", Cost: 6, Worth: 12}},
		{Kind: StepPay, Amount: 7},
		{Kind: StepDeliver, Item: goods.Item{ID: "a", Cost: 4, Worth: 10}},
	}
	if len(plan.Steps) != len(want) {
		t.Fatalf("steps = %v, want %v", plan.Steps, want)
	}
	for i := range want {
		if plan.Steps[i] != want[i] {
			t.Errorf("step %d = %v, want %v", i, plan.Steps[i], want[i])
		}
	}
	if plan.Steps.TotalPaid() != tm.Price {
		t.Errorf("total paid %v != price %v", plan.Steps.TotalPaid(), tm.Price)
	}
}

// lawlerOrderReference is the literal form of the paper's quadratic-time
// algorithm: n backward steps, each scanning the remaining items for the
// one with minimal supplier cost (ties broken by ID). It is the oracle for
// lawlerOrder's single sort.
func lawlerOrderReference(b goods.Bundle) []goods.Item {
	remaining := make([]goods.Item, len(b.Items))
	copy(remaining, b.Items)
	order := make([]goods.Item, len(remaining))
	for pos := len(order) - 1; pos >= 0; pos-- {
		best := 0
		for i := 1; i < len(remaining); i++ {
			if remaining[i].Cost < remaining[best].Cost ||
				(remaining[i].Cost == remaining[best].Cost && remaining[i].ID < remaining[best].ID) {
				best = i
			}
		}
		order[pos] = remaining[best]
		remaining[best] = remaining[len(remaining)-1]
		remaining = remaining[:len(remaining)-1]
	}
	return order
}

func TestLawlerReferenceMatchesSortedFastPath(t *testing.T) {
	// The literal O(n²) backward greedy and the sort collapse must produce
	// the identical order, including on ties.
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 200; trial++ {
		tm := randomBeneficialTerms(rng, 1+rng.Intn(12), trial%2 == 0)
		fast := lawlerOrder(tm.Bundle)
		ref := lawlerOrderReference(tm.Bundle)
		if len(fast) != len(ref) {
			t.Fatal("length mismatch")
		}
		for i := range fast {
			if fast[i] != ref[i] {
				t.Fatalf("trial %d: order differs at %d: %v vs %v\nbundle %+v", trial, i, fast[i], ref[i], tm.Bundle)
			}
		}
	}
}

// TestSortByCostMatchesCompareByCost: the scheduler's cost order, sorted by
// insertion up to insertionSortMax items and generically above, is
// goods.CompareByCost's order, on bundles of every size up to twice the
// cut-over with many cost ties broken by IDs of shared prefixes.
func TestSortByCostMatchesCompareByCost(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 2000; trial++ {
		items := make([]goods.Item, rng.Intn(2*insertionSortMax+1))
		for i, k := range rng.Perm(len(items)) {
			items[i] = goods.Item{ID: fmt.Sprintf("g%d", k), Cost: goods.Money(rng.Intn(4)), Worth: goods.Money(rng.Intn(9))}
		}
		want := slices.Clone(items)
		slices.SortFunc(want, goods.CompareByCost)
		sortByCost(items)
		if !slices.Equal(items, want) {
			t.Fatalf("trial %d: sortByCost = %v, want %v", trial, items, want)
		}
	}
}

func TestScheduleRejectsInvalidInputs(t *testing.T) {
	if _, err := Schedule(Terms{}, SafeBands(Stakes{}), Options{}); err == nil {
		t.Error("empty terms accepted")
	}
	if _, err := Schedule(twoItemTerms(), Bands{}, Options{}); !errors.Is(err, ErrNoBands) {
		t.Error("band-less schedule accepted")
	}
}

func TestNotBeneficialTermsInfeasible(t *testing.T) {
	// Price above consumer worth: the consumer would never settle.
	b := goods.Bundle{Items: []goods.Item{{ID: "a", Cost: 5, Worth: 10}}}
	tm := Terms{Bundle: b, Price: 50}
	if _, err := ScheduleSafe(tm, Stakes{}, Options{}); !errors.Is(err, ErrNoSafeSequence) {
		t.Errorf("overpriced terms scheduled: %v", err)
	}
	// Price below supplier cost with no slack.
	tm = Terms{Bundle: b, Price: 2}
	if _, err := ScheduleSafe(tm, Stakes{}, Options{}); !errors.Is(err, ErrNoSafeSequence) {
		t.Errorf("underpriced terms scheduled: %v", err)
	}
	// …but exposure caps can absorb a deliberate loss (gift/subsidy case).
	if _, err := ScheduleTrustAware(tm, ExposureCaps{Supplier: 10, Consumer: 10}, Options{}); err != nil {
		t.Errorf("subsidised trade should schedule under caps: %v", err)
	}
}

func TestPlanForOrderRejectsWrongOrder(t *testing.T) {
	tm := twoItemTerms()
	if _, err := PlanForOrder(tm, SafeBands(Stakes{Supplier: 4}), nil, Options{}); err == nil {
		t.Error("empty order accepted")
	}
	// An order containing a foreign item fails validation.
	order := []goods.Item{{ID: "zz", Cost: 1, Worth: 1}, {ID: "a", Cost: 4, Worth: 10}}
	if _, err := PlanForOrder(tm, SafeBands(Stakes{Supplier: 4}), order, Options{}); err == nil {
		t.Error("foreign item accepted")
	}
}
