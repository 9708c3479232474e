package main

import (
	"strings"
	"testing"

	"trustcoop/internal/testutil"
)

// runCaptured runs the command with args, returning what it printed.
func runCaptured(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var out strings.Builder
	err := run(args, &out)
	return out.String(), err
}

// TestRunSmallPopulation drives every strategy over a small mixed
// population and checks the report describes the run it made.
func TestRunSmallPopulation(t *testing.T) {
	for _, strat := range []string{"naive", "safe-only", "trust-aware"} {
		out, err := runCaptured(t, "-honest", "4", "-backstabbers", "2", "-sessions", "30",
			"-items", "4", "-drop", "0.05", "-strategy", strat)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		for _, want := range []string{
			"strategy        " + strat,
			"population 6, sessions 30, drop 5.0%",
			"network         sent",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("%s: output lacks %q:\n%s", strat, want, out)
			}
		}
	}
}

// TestRunRejectsBadInput: a negative behaviour count and a drop rate
// outside [0, 1] fail with an error instead of running a different
// scenario from the one reported.
func TestRunRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-honest", "5", "-backstabbers", "-3"},
		{"-drop", "1.5"},
		{"-drop", "-0.5"},
		{"-drop", "NaN"},
		{"-strategy", "greedy"},
		{"-sessions", "0"},
		{"-bogus"},
	} {
		out, err := runCaptured(t, args...)
		if err == nil {
			t.Errorf("run(%v) accepted:\n%s", args, out)
		}
		if strings.Contains(out, "strategy ") {
			t.Errorf("run(%v) printed a report before failing:\n%s", args, out)
		}
	}
}

func TestMain(m *testing.M) { testutil.MainOr(m, main) }

// TestFlagExits runs the built command: -h exits 0 after the usage, an
// undefined flag is reported once and exits 2, and an error run returns
// after parsing prints once and exits 1.
func TestFlagExits(t *testing.T) {
	testutil.FlagExits(t, "trustsim", "-strategy", "bogus")
}
