package eval

import (
	"strconv"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tbl := &Table{ID: "T", Title: "demo", Cols: []string{"a", "long-header", "z"}}
	tbl.AddRow("1", "2", "x")
	tbl.AddRow("only-one")
	tbl.AddRow("∞", "CARA α=0.2", "×")
	var sb strings.Builder
	if err := tbl.Fprint(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "T — demo") || !strings.Contains(out, "long-header") {
		t.Errorf("render:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // title, header, separator, 3 rows
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
	// Columns align by rune, multi-byte cells included: the third column
	// starts after the 8-rune first and 11-rune second columns and their
	// two-space gutters on every line that has it.
	for _, li := range []int{1, 2, 3, 5} {
		runes := []rune(lines[li])
		if len(runes) <= 23 || runes[22] != ' ' || runes[23] == ' ' {
			t.Errorf("line %d misaligned: %q", li, lines[li])
		}
	}
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{ID: "T", Title: "demo", Cols: []string{"a", "b"}}
	tbl.AddRow("x,y", `he said "hi"`)
	csv := tbl.CSV()
	if !strings.Contains(csv, `"x,y"`) || !strings.Contains(csv, `"he said ""hi"""`) {
		t.Errorf("csv quoting:\n%s", csv)
	}
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Errorf("csv header:\n%s", csv)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("E99", RunConfig{Seed: 1, Quick: true}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestIDsComplete(t *testing.T) {
	ids := IDs()
	if len(ids) != 13 {
		t.Fatalf("IDs = %v, want 13 experiments", ids)
	}
	for i, id := range ids {
		want := "E" + strconv.Itoa(i+1)
		if id != want {
			t.Errorf("IDs[%d] = %s, want %s (numeric order)", i, id, want)
		}
	}
}

// TestAllExperimentsQuick smoke-runs every experiment with reduced configs
// and sanity-checks the table shapes.
func TestAllExperimentsQuick(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tbl, err := Run(id, RunConfig{Seed: 42, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if tbl.ID != id {
				t.Errorf("table ID = %s", tbl.ID)
			}
			if len(tbl.Cols) < 2 || len(tbl.Rows) == 0 {
				t.Fatalf("degenerate table: %d cols, %d rows", len(tbl.Cols), len(tbl.Rows))
			}
			for i, row := range tbl.Rows {
				if len(row) != len(tbl.Cols) {
					t.Errorf("row %d has %d cells, want %d", i, len(row), len(tbl.Cols))
				}
			}
		})
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	for _, id := range []string{"E1", "E7", "E9"} {
		a, err := Run(id, RunConfig{Seed: 7, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(id, RunConfig{Seed: 7, Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		// E5 measures wall-clock time, so it is exempt; the pure-simulation
		// experiments must reproduce exactly.
		if a.String() != b.String() {
			t.Errorf("%s not deterministic:\n%s\nvs\n%s", id, a, b)
		}
	}
}

func TestE3NeverViolatesExposure(t *testing.T) {
	tbl, err := Run("E3", RunConfig{Seed: 3, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	violIdx := -1
	for i, c := range tbl.Cols {
		if c == "violations" {
			violIdx = i
		}
	}
	if violIdx < 0 {
		t.Fatal("no violations column")
	}
	for _, row := range tbl.Rows {
		if row[violIdx] != "0" {
			t.Errorf("exposure violation recorded: %v", row)
		}
	}
}

func TestE1IsolatedExchangeRowIsZero(t *testing.T) {
	tbl, err := E1SafeExistence(E1Config{Seed: 5, Trials: 50, Sizes: []int{4}})
	if err != nil {
		t.Fatal(err)
	}
	// δ=0 column: no bundle with positive costs has a safe sequence.
	for _, row := range tbl.Rows {
		if row[2] != "0.0%" {
			t.Errorf("isolated existence = %s, want 0.0%%", row[2])
		}
	}
}
