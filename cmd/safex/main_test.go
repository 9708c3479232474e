package main

import (
	"strings"
	"testing"

	"trustcoop/internal/testutil"
)

const (
	twoItems = `{"price": 15, "items": [
  {"id": "a", "cost": 4, "worth": 10},
  {"id": "b", "cost": 6, "worth": 12}
]}`
	chapters = `{"price": 30, "items": [
  {"id": "ch1", "cost": 6, "worth": 14},
  {"id": "ch2", "cost": 8, "worth": 15},
  {"id": "ch3", "cost": 10, "worth": 16}
]}`
)

// TestGoldenOutput pins safex's whole output for each case, line by line,
// against testdata/<name>.golden; a failing run pins its error as a last
// "error:" line. Regenerate deliberately with
//
//	go test ./cmd/safex/ -run Golden -update
func TestGoldenOutput(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		in   string
	}{
		{"safe-staked", []string{"-mode", "safe", "-stake-supplier", "4", "-stake-consumer", "4"}, twoItems},
		{"safe-isolated", []string{"-mode", "safe"}, twoItems},
		{"trust-aware", []string{"-mode", "trust-aware", "-cap-supplier", "5", "-cap-consumer", "5"}, twoItems},
		{"combined-eager", []string{"-mode", "combined", "-stake-supplier", "6", "-stake-consumer", "6",
			"-cap-supplier", "6", "-cap-consumer", "6", "-eager"}, chapters},
		{"combined-infeasible", []string{"-mode", "combined", "-stake-supplier", "2", "-cap-consumer", "3"}, chapters},
		{"trust-aware-chapters", []string{"-mode", "trust-aware", "-cap-supplier", "2.5", "-cap-consumer", "4"}, chapters},
		{"analyze", []string{"-analyze"}, chapters},
		{"unknown-mode", []string{"-mode", "greedy"}, twoItems},
		{"bad-json", nil, `{"price": 15,`},
		{"bad-bundle", nil, `{"price": 5, "items": [{"id": "a", "cost": -1, "worth": 10}]}`},
		// Amounts from outside that no Money can hold are rejected by name,
		// not wrapped to math.MinInt64 or saturated into the Unlimited
		// sentinel.
		{"stake-supplier-nan", []string{"-stake-supplier", "NaN"}, twoItems},
		{"stake-consumer-inf", []string{"-stake-consumer", "Inf"}, twoItems},
		{"cap-supplier-huge", []string{"-mode", "trust-aware", "-cap-supplier", "1e13"}, twoItems},
		{"cap-consumer-neg-inf", []string{"-mode", "trust-aware", "-cap-consumer", "-Inf"}, twoItems},
		// A negative stake or cap is refused by its flag at parse time.
		{"stake-supplier-negative", []string{"-stake-supplier", "-1"}, twoItems},
		{"stake-consumer-negative", []string{"-stake-supplier", "4", "-stake-consumer", "-0.5"}, twoItems},
		{"cap-supplier-negative", []string{"-mode", "trust-aware", "-cap-supplier", "-1", "-cap-consumer", "-2"}, twoItems},
		{"cap-consumer-negative", []string{"-mode", "trust-aware", "-cap-supplier", "5", "-cap-consumer", "-5"}, twoItems},
		{"price-huge", nil, `{"price": 2e12, "items": [{"id": "a", "cost": 4, "worth": 10}]}`},
		{"cost-huge", nil, `{"price": 15, "items": [{"id": "a", "cost": 4, "worth": 10}, {"id": "b", "cost": 1e300, "worth": 12}]}`},
		{"worth-negative-huge", []string{"-analyze"}, `{"price": 15, "items": [{"id": "a", "cost": 4, "worth": -1e13}]}`},
		// -analyze validates the terms like every schedule does.
		{"analyze-negative-price", []string{"-analyze"}, `{"price": -5, "items": [{"id": "a", "cost": 4, "worth": 10}]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(tc.args, strings.NewReader(tc.in), &out); err != nil {
				out.WriteString("error: " + err.Error() + "\n")
			}
			testutil.Golden(t, "testdata/"+tc.name+".golden", out.String())
		})
	}
}

func TestMain(m *testing.M) { testutil.MainOr(m, main) }

// TestFlagExits runs the built command: -h exits 0 after the usage, an
// undefined flag is reported once and exits 2, and an error run returns
// after parsing prints once and exits 1.
func TestFlagExits(t *testing.T) {
	testutil.FlagExits(t, "safex", "-mode", "bogus")
}
