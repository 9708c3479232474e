package main

import (
	"os"
	"strings"
	"testing"

	"trustcoop/internal/testutil"
)

// TestRunQuickSubset drives the real flag surface end to end: a quick
// experiment subset, CSV mode, and the evidence/gossip knobs — including
// the posterior-gossip path over a sharded cell.
func TestRunQuickSubset(t *testing.T) {
	null, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	// Silence the table output; run's correctness is its error behaviour.
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() {
		os.Stdout = old
		devnull.Close()
	}()

	for _, args := range [][]string{
		{"-exp", "E1", "-quick", "-seed", "3"},
		{"-exp", "E2", "-quick", "-seed", "3", "-csv", "-workers", "2"},
		{"-exp", "E2", "-quick", "-seed", "3", "-gossip", "2:ring2", "-evidence", "posterior", "-engines", "2"},
	} {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

// TestRunRejectsBadFlags: malformed specs fail fast with an error, not a
// mislabeled table.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // a substring the error must carry
	}{
		{[]string{"-exp", "E99", "-quick"}, "E99"},
		{[]string{"-exp", "E2", "-quick", "-gossip", "4:torus"}, "torus"},
		{[]string{"-exp", "E1", "-quick", "-evidence", "telepathy"}, "telepathy"},
		{[]string{"-exp", "E2", "-quick", "-workers", "-3"}, "-workers"},
		{[]string{"-exp", "E2", "-quick", "-engines", "-5"}, "-engines"},
	} {
		err := run(tc.args)
		if err == nil {
			t.Errorf("run(%v) accepted", tc.args)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want an error naming %q", tc.args, err, tc.want)
		}
	}
}

func TestMain(m *testing.M) { testutil.MainOr(m, main) }

// TestFlagExits runs the built command: -h exits 0 after the usage, an
// undefined flag is reported once and exits 2, and an error run returns
// after parsing prints once and exits 1.
func TestFlagExits(t *testing.T) {
	testutil.FlagExits(t, "evalrun", "-exp", "E99")
}
