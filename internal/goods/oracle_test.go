package goods

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// validateReference is the map-based Bundle.Validate the sorted-buffer
// version replaced: one pass in bundle order, a set of the IDs seen so far.
// It is the oracle for results and error texts.
func validateReference(b Bundle) error {
	if len(b.Items) == 0 {
		return ErrEmptyBundle
	}
	seen := make(map[string]bool, len(b.Items))
	for i, it := range b.Items {
		if it.ID == "" {
			return fmt.Errorf("goods: item %d has empty ID", i)
		}
		if seen[it.ID] {
			return fmt.Errorf("goods: duplicate item ID %q", it.ID)
		}
		seen[it.ID] = true
		if it.Cost < 0 {
			return fmt.Errorf("goods: item %q has negative cost %v", it.ID, it.Cost)
		}
		if it.Worth < 0 {
			return fmt.Errorf("goods: item %q has negative worth %v", it.ID, it.Worth)
		}
	}
	return nil
}

// generateReference is Generate as it was before the ID table: every ID
// formatted with Sprintf and the finished bundle run through the reference
// validation.
func generateReference(cfg GenConfig, rng *rand.Rand) (Bundle, error) {
	if cfg.Items <= 0 {
		return Bundle{}, fmt.Errorf("goods: generate: item count %d must be positive", cfg.Items)
	}
	if cfg.MeanCost <= 0 {
		return Bundle{}, fmt.Errorf("goods: generate: mean cost %v must be positive", cfg.MeanCost)
	}
	if cfg.MarginMax < cfg.MarginMin {
		return Bundle{}, fmt.Errorf("goods: generate: margin range [%g, %g] inverted", cfg.MarginMin, cfg.MarginMax)
	}
	if cfg.NegFraction < 0 || cfg.NegFraction > 1 {
		return Bundle{}, fmt.Errorf("goods: generate: negative-surplus fraction %g outside [0,1]", cfg.NegFraction)
	}
	items := make([]Item, cfg.Items)
	for i := range items {
		cost := drawCost(cfg, rng)
		margin := cfg.MarginMin + rng.Float64()*(cfg.MarginMax-cfg.MarginMin)
		worth := Money(float64(cost) * (1 + margin))
		items[i] = Item{ID: fmt.Sprintf("g%d", i), Cost: cost, Worth: worth}
	}
	if cfg.ZeroCostLast {
		items[len(items)-1].Cost = 0
	}
	if cfg.NegFraction > 0 {
		k := int(math.Round(cfg.NegFraction * float64(len(items))))
		for i := 0; i < k && i < len(items); i++ {
			if items[i].Cost == 0 {
				items[i].Cost = Unit
			}
			items[i].Worth = items[i].Cost / 2
		}
	}
	b := Bundle{Items: items}
	if err := validateReference(b); err != nil {
		return Bundle{}, fmt.Errorf("goods: generate: %w", err)
	}
	return b, nil
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// idFormats shape random IDs: short ones, ones told apart only by length
// ("x\x001" against "x1"), and 9–16-byte and longer ones whose first and last
// eight bytes agree.
var idFormats = []string{"x%d", "x\x00%d", "item-000%d", "a-shared-prefix-%d-and-a-shared-suffix", "%d"}

// randomBundle draws a bundle whose IDs come from a small alphabet (so
// repeats are common), with occasional empty IDs and negative valuations,
// anywhere in the bundle.
func randomBundle(rng *rand.Rand) Bundle {
	n := rng.Intn(40)
	if rng.Intn(8) == 0 {
		n = rng.Intn(400) // past the insertion-sort cutoff and the ID table
	}
	ids := 1 + rng.Intn(2*n+2)
	items := make([]Item, n)
	for i := range items {
		id := fmt.Sprintf(idFormats[rng.Intn(len(idFormats))], rng.Intn(ids))
		it := Item{ID: id, Cost: Money(rng.Intn(100)), Worth: Money(rng.Intn(100))}
		switch rng.Intn(20) {
		case 0:
			it.ID = ""
		case 1:
			it.Cost = -it.Cost - 1
		case 2:
			it.Worth = -it.Worth - 1
		case 3:
			it.Cost, it.Worth = -1, -1
		}
		items[i] = it
	}
	return Bundle{Items: items}
}

func TestValidateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kinds := map[string]int{}
	for trial := 0; trial < 20000; trial++ {
		b := randomBundle(rng)
		got, want := b.Validate(), validateReference(b)
		if errText(got) != errText(want) {
			t.Fatalf("trial %d: Validate = %q, reference = %q\nbundle %+v", trial, errText(got), errText(want), b.Items)
		}
		// Bundles of up to pairwiseBundle items take the pairwise search;
		// it must find the position the sorted-key search finds.
		if len(b.Items) <= pairwiseBundle {
			if got, want := firstRepeat(b.Items), firstRepeatIn(b.Items, nil); got != want {
				t.Fatalf("trial %d: pairwise firstRepeat = %d, sorted = %d\nbundle %+v", trial, got, want, b.Items)
			}
		}
		if want == ErrEmptyBundle && got != ErrEmptyBundle {
			t.Fatalf("trial %d: empty bundle error is not ErrEmptyBundle", trial)
		}
		kinds[kindOf(want)]++
	}
	// Every error kind must have been reached, or the property proves little.
	for _, k := range []string{"valid", "empty bundle", "empty ID", "duplicate", "negative cost", "negative worth"} {
		if kinds[k] == 0 {
			t.Errorf("no random bundle reached %q: %v", k, kinds)
		}
	}
}

func kindOf(err error) string {
	switch s := errText(err); {
	case err == nil:
		return "valid"
	case err == ErrEmptyBundle:
		return "empty bundle"
	case strings.HasPrefix(s, "goods: generate: ") && !strings.Contains(s, "goods: item"):
		return "config"
	case strings.Contains(s, "empty ID"):
		return "empty ID"
	case strings.Contains(s, "duplicate"):
		return "duplicate"
	case strings.Contains(s, "negative cost"):
		return "negative cost"
	default:
		return "negative worth"
	}
}

func TestGenerateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	means := []Money{1, Unit, 10 * Unit, Unlimited, math.MaxInt64}
	kinds := map[string]int{}
	for trial := 0; trial < 3000; trial++ {
		cfg := GenConfig{
			Items:        rng.Intn(12) - 1,
			Dist:         Distribution(rng.Intn(4)),
			MeanCost:     means[rng.Intn(len(means))],
			MarginMin:    -3 + 4*rng.Float64(),
			NegFraction:  rng.Float64()*1.2 - 0.1,
			ZeroCostLast: rng.Intn(2) == 0,
		}
		cfg.MarginMax = cfg.MarginMin + 2*rng.Float64() - 0.2
		if rng.Intn(6) == 0 {
			cfg.Items = 250 + rng.Intn(30) // across the ID table's end
		}
		if rng.Intn(10) == 0 {
			cfg.MeanCost = -cfg.MeanCost
		}
		seed := rng.Int63()
		got, gotErr := Generate(cfg, rand.New(rand.NewSource(seed)))
		want, wantErr := generateReference(cfg, rand.New(rand.NewSource(seed)))
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("trial %d %+v: Generate err = %q, reference = %q", trial, cfg, errText(gotErr), errText(wantErr))
		}
		if len(got.Items) != len(want.Items) {
			t.Fatalf("trial %d %+v: %d items, reference %d", trial, cfg, len(got.Items), len(want.Items))
		}
		for i := range got.Items {
			if got.Items[i] != want.Items[i] {
				t.Fatalf("trial %d %+v: item %d = %+v, reference %+v", trial, cfg, i, got.Items[i], want.Items[i])
			}
		}
		kinds[kindOf(wantErr)]++
	}
	// The inline valuation checks must be exercised both ways. (A negative
	// cost needs a float-to-int conversion that wraps, as amd64's does; it is
	// compared above wherever it occurs but not required.)
	for _, k := range []string{"valid", "negative worth"} {
		if kinds[k] == 0 {
			t.Errorf("no config reached %q: %v", k, kinds)
		}
	}
}

// BenchmarkValidate times Validate against the map-based reference on
// generated bundles:
//
//	go test -run '^$' -bench Validate ./internal/goods/
func BenchmarkValidate(b *testing.B) {
	for _, n := range []int{8, 64} {
		cfg := DefaultGenConfig()
		cfg.Items = n
		bundle, err := Generate(cfg, rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range []struct {
			name     string
			validate func(Bundle) error
		}{{"sorted", Bundle.Validate}, {"map", validateReference}} {
			b.Run(fmt.Sprintf("items=%d/%s", n, v.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := v.validate(bundle); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestGenerateIntoMatchesGenerate: drawing into a buffer a bundle earlier
// than this one left dirty must give exactly the items a fresh Generate
// gives and leave the stream at the same draw, whether the buffer has room
// (then its backing array is reused) or is too small (then it grows), over
// all three cost distributions, a zero-cost last item and negative-surplus
// fractions. A malformed config fails as Generate fails.
func TestGenerateIntoMatchesGenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var buf []Item
	covered := map[string]int{}
	for trial := 0; trial < 2000; trial++ {
		cfg := GenConfig{
			Items:        1 + rng.Intn(20),
			Dist:         Distribution(1 + rng.Intn(3)),
			MeanCost:     Money(1 + rng.Int63n(int64(50*Unit))),
			MarginMin:    rng.Float64() - 0.5,
			ZeroCostLast: rng.Intn(3) == 0,
		}
		cfg.MarginMax = cfg.MarginMin + rng.Float64()
		if rng.Intn(2) == 0 {
			cfg.NegFraction = rng.Float64()
		}
		if rng.Intn(50) == 0 {
			cfg.Items = 0 // malformed
		}
		seed := rng.Int63()
		gotRng, wantRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		roomy := cap(buf) >= cfg.Items
		got, gotErr := GenerateInto(buf, cfg, gotRng)
		want, wantErr := Generate(cfg, wantRng)
		if errText(gotErr) != errText(wantErr) {
			t.Fatalf("trial %d %+v: GenerateInto err = %q, Generate %q", trial, cfg, errText(gotErr), errText(wantErr))
		}
		if !slices.Equal(got.Items, want.Items) {
			t.Fatalf("trial %d %+v: GenerateInto gives %+v, Generate %+v", trial, cfg, got.Items, want.Items)
		}
		if g, w := gotRng.Int63(), wantRng.Int63(); g != w {
			t.Fatalf("trial %d %+v: next draw %d after GenerateInto, %d after Generate", trial, cfg, g, w)
		}
		if gotErr != nil {
			covered["error"]++
			continue
		}
		if roomy && &got.Items[0] != &buf[:1][0] {
			t.Fatalf("trial %d: a buffer of capacity %d was not reused for %d items", trial, cap(buf), cfg.Items)
		}
		covered[cfg.Dist.String()]++
		if roomy {
			covered["reused"]++
		} else {
			covered["grown"]++
		}
		if cfg.ZeroCostLast {
			covered["zero-cost last"]++
		}
		if cfg.NegFraction > 0 {
			covered["negative surplus"]++
		}
		buf = got.Items
	}
	for _, k := range []string{"uniform", "pareto", "equal", "reused", "grown", "zero-cost last", "negative surplus", "error"} {
		if covered[k] == 0 {
			t.Errorf("no trial covered %q: %v", k, covered)
		}
	}
}
