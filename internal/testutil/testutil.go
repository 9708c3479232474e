// Package testutil is the repository's shared determinism test harness.
//
// The codebase promises one invariant over and over: a knob that only adds
// parallelism or changes a storage backend must never change an experiment's
// rendered table — worker counts (eval.RunConfig.Workers), per-cell engine
// counts (eval.RunConfig.EnginesPerCell), exact-store backends. Before this
// package every such test hand-rolled the same loop (run base, run variant,
// compare strings). The harness centralises it: describe the base run and
// the variants, and ByteIdentical regenerates each and fails with a
// line-level diff pointer on the first byte that differs.
//
// Golden is the cross-change counterpart: it pins a rendering against a
// committed file, so a change that moves one byte of a program's output, an
// experiment table or the metrics exposition fails as a one-line diff.
//
// The harness deliberately consumes plain rendered strings rather than
// eval.Table values: the packages under test import nothing from here, and
// this package imports nothing from them, so it is usable from any package's
// internal tests (including internal/eval's own) without import cycles.
package testutil

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files instead of comparing against them")

// Golden fails t unless got equals the committed file at path byte for
// byte, pointing at the first differing line; a missing or extra trailing
// line is a difference too. Run the test with -update to rewrite the file
// from got instead — deliberately, and say so in the change. Every golden
// in the repository regenerates with one command:
//
//	go test ./internal/eval/ ./internal/trustd/ ./cmd/safex/ ./cmd/trustsim/ ./examples/... -run Golden -update
func Golden(t testing.TB, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%s: output drifted from the committed golden:\n%s", path, FirstDiff(string(want), got))
	}
}

// Variant is one knob setting of a regeneration: Run produces the rendered
// artefact (a table, a report — any string) under that setting.
type Variant struct {
	Name string
	Run  func() (string, error)
}

// Render adapts a function producing any fmt.Stringer (eval tables, reports)
// to the string-returning shape Variant consumes.
func Render[T fmt.Stringer](run func() (T, error)) func() (string, error) {
	return func() (string, error) {
		v, err := run()
		if err != nil {
			return "", err
		}
		return v.String(), nil
	}
}

// ByteIdentical regenerates base and every variant and fails t unless every
// variant's rendering is byte-for-byte equal to the base's. The failure
// message pinpoints the first differing line, so a one-cell drift in a
// 40-row table reads as one line, not two full table dumps to eyeball.
func ByteIdentical(t testing.TB, base Variant, variants ...Variant) {
	t.Helper()
	want, err := base.Run()
	if err != nil {
		t.Fatalf("%s: %v", base.Name, err)
	}
	for _, v := range variants {
		got, err := v.Run()
		if err != nil {
			t.Errorf("%s: %v", v.Name, err)
			continue
		}
		if got != want {
			t.Errorf("%s differs from %s:\n%s", v.Name, base.Name, FirstDiff(want, got))
		}
	}
}

// FirstDiff renders the first line-level difference between two strings:
// the 1-based line number, the two lines, and a caret under the first
// differing byte. Equal inputs render as "<identical>".
func FirstDiff(want, got string) string {
	if want == got {
		return "<identical>"
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w == g {
			continue
		}
		col := 0
		for col < len(w) && col < len(g) && w[col] == g[col] {
			col++
		}
		return fmt.Sprintf("line %d, byte %d:\nwant: %q\ngot:  %q\n      %s^",
			i+1, col+1, w, g, strings.Repeat(" ", col+1))
	}
	// Only possible when the strings differ but every split line matches —
	// i.e. a trailing-newline difference.
	return fmt.Sprintf("line count %d vs %d (trailing newline difference)", len(wl), len(gl))
}
