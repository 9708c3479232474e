// Package cli ends the repository's commands the way the flag package's
// ExitOnError would, while their run functions keep returning errors to
// their tests: -h prints the usage and exits 0, a parse error is reported
// once with the usage and exits 2, and any other error run returns prints
// once, after the command's name, and exits 1.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
)

// parseError is an error fs.Parse returned, which the FlagSet has already
// printed with the usage.
type parseError struct{ err error }

func (e parseError) Error() string { return e.err.Error() }
func (e parseError) Unwrap() error { return e.err }

// Parse parses args with fs, which must use flag.ContinueOnError, and marks
// a failure as already reported.
func Parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return parseError{err}
	}
	return nil
}

// Exit ends the command called name, whose run returned err.
func Exit(name string, err error) {
	var pe parseError
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case errors.As(err, &pe):
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
}
