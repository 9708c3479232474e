package testutil

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// recorder captures harness failures instead of failing the real test.
type recorder struct {
	testing.TB
	errs   []string
	fatals []string
}

func (r *recorder) Helper() {}
func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}
func (r *recorder) Fatalf(format string, args ...any) {
	r.fatals = append(r.fatals, fmt.Sprintf(format, args...))
	panic(stopHarness{})
}

type stopHarness struct{}

func TestByteIdenticalPasses(t *testing.T) {
	ok := func() (string, error) { return "table\nrow", nil }
	r := &recorder{}
	ByteIdentical(r, Variant{"base", ok}, Variant{"v1", ok}, Variant{"v2", ok})
	if len(r.errs) != 0 || len(r.fatals) != 0 {
		t.Errorf("identical variants reported: errs=%v fatals=%v", r.errs, r.fatals)
	}
}

func TestByteIdenticalReportsFirstDiffLine(t *testing.T) {
	r := &recorder{}
	ByteIdentical(r,
		Variant{"base", func() (string, error) { return "a\nbb\nc", nil }},
		Variant{"drift", func() (string, error) { return "a\nbX\nc", nil }},
	)
	if len(r.errs) != 1 {
		t.Fatalf("errs = %v", r.errs)
	}
	if !strings.Contains(r.errs[0], "line 2") || !strings.Contains(r.errs[0], "byte 2") {
		t.Errorf("diff pointer missing: %s", r.errs[0])
	}
}

func TestByteIdenticalVariantErrorsAreReportedPerVariant(t *testing.T) {
	r := &recorder{}
	boom := errors.New("boom")
	ByteIdentical(r,
		Variant{"base", func() (string, error) { return "x", nil }},
		Variant{"bad", func() (string, error) { return "", boom }},
		Variant{"good", func() (string, error) { return "x", nil }},
	)
	if len(r.errs) != 1 || !strings.Contains(r.errs[0], "boom") {
		t.Errorf("errs = %v", r.errs)
	}
}

func TestByteIdenticalBaseErrorIsFatal(t *testing.T) {
	r := &recorder{}
	func() {
		defer func() {
			if rec := recover(); rec != nil {
				if _, ok := rec.(stopHarness); !ok {
					panic(rec)
				}
			}
		}()
		ByteIdentical(r, Variant{"base", func() (string, error) { return "", errors.New("dead") }})
	}()
	if len(r.fatals) != 1 {
		t.Errorf("fatals = %v", r.fatals)
	}
}

func TestFirstDiff(t *testing.T) {
	if got := FirstDiff("same", "same"); got != "<identical>" {
		t.Errorf("identical: %q", got)
	}
	if got := FirstDiff("a\n", "a"); !strings.Contains(got, "trailing newline") {
		t.Errorf("trailing newline case: %q", got)
	}
	if got := FirstDiff("ab", "ab\nextra"); !strings.Contains(got, "line 2") {
		t.Errorf("extra line case: %q", got)
	}
}

type stringerFunc string

func (s stringerFunc) String() string { return string(s) }

func TestRenderAdaptsStringer(t *testing.T) {
	run := Render(func() (stringerFunc, error) { return "rendered", nil })
	got, err := run()
	if err != nil || got != "rendered" {
		t.Errorf("got %q, %v", got, err)
	}
	fail := Render(func() (stringerFunc, error) { return "", errors.New("nope") })
	if _, err := fail(); err == nil {
		t.Error("error swallowed")
	}
}

func TestGoldenComparesWholeFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.golden")
	if err := os.WriteFile(path, []byte("a\nb\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		got, want string // want is a fragment of the one reported error; "" = passes
	}{
		{"a\nb\n", ""},
		{"a\nX\n", "line 2"},
		{"a\n", "line 2"},            // a missing trailing line fails
		{"a\nb\nc\n", "line 3"},      // so does an extra one
		{"a\nb", "trailing newline"}, // and a missing final newline
	} {
		r := &recorder{}
		Golden(r, path, tc.got)
		switch {
		case tc.want == "" && len(r.errs) != 0:
			t.Errorf("Golden(%q) reported %v", tc.got, r.errs)
		case tc.want != "" && (len(r.errs) != 1 || !strings.Contains(r.errs[0], tc.want)):
			t.Errorf("Golden(%q) errs = %v, want one mentioning %q", tc.got, r.errs, tc.want)
		}
	}
}
