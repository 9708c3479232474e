package main

import (
	"strings"
	"testing"

	"trustcoop/internal/testutil"
)

// TestGoldenOutput pins the program's whole output, line by line, against
// testdata/. Regenerate deliberately with
//
//	go test ./examples/quickstart/ -run Golden -update
func TestGoldenOutput(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"report", nil},
		{"stray-argument", []string{"-v"}},
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
