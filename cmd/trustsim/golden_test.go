package main

import (
	"strings"
	"testing"

	"trustcoop/internal/testutil"
)

// TestGoldenOutput pins trustsim's whole report for each case, line by
// line, against testdata/<name>.golden; a failing run pins its error as a
// last "error:" line. Regenerate deliberately with
//
//	go test ./cmd/trustsim/ -run Golden -update
func TestGoldenOutput(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"default", nil},
		{"naive-lossy", []string{"-honest", "4", "-backstabbers", "2", "-sessions", "30", "-items", "4", "-drop", "0.05", "-strategy", "naive"}},
		{"safe-only-lossy", []string{"-honest", "4", "-backstabbers", "2", "-sessions", "30", "-items", "4", "-drop", "0.05", "-strategy", "safe-only"}},
		{"mixed-population", []string{"-honest", "8", "-rational", "2", "-opportunists", "2", "-random", "2", "-backstabbers", "2",
			"-sessions", "300", "-stake", "1.5", "-seed", "3"}},
		{"unknown-strategy", []string{"-strategy", "greedy"}},
		// A stake no Money can hold is rejected by name: NaN and 1e13 used to
		// wrap to math.MinInt64, 2e12 to run above the Unlimited sentinel.
		{"stake-nan", []string{"-stake", "NaN"}},
		{"stake-1e13", []string{"-stake", "1e13"}},
		{"stake-2e12", []string{"-stake", "2e12"}},
		{"stake-neg-inf", []string{"-stake", "-Inf"}},
		// A negative stake is refused by its flag, not by the first schedule.
		{"stake-negative", []string{"-stake", "-1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(tc.args, &out); err != nil {
				out.WriteString("error: " + err.Error() + "\n")
			}
			testutil.Golden(t, "testdata/"+tc.name+".golden", out.String())
		})
	}
}
