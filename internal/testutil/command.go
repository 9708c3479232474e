package testutil

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// commandEnv, set in a command test binary's environment, makes MainOr run
// the command instead of the tests.
const commandEnv = "TRUSTCOOP_TEST_RUN_COMMAND"

// MainOr is a command test package's TestMain: in a process that
// FlagExits started it runs the command's main, and otherwise the tests.
func MainOr(m *testing.M, main func()) {
	if os.Getenv(commandEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCommand runs the test binary as the command, with args and no input,
// and returns its exit status and standard error.
func runCommand(t *testing.T, args ...string) (code int, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), commandEnv+"=1")
	var buf bytes.Buffer
	cmd.Stderr = &buf
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("%v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), buf.String()
}

// FlagExits runs the command called name, whose test package's TestMain is
// MainOr, three times. With -h it must print the usage and exit 0. With an
// undefined flag it must report the flag once, with the usage, and exit 2.
// With failing, arguments that parse but make its run return an error, it
// must print that error once, after its name, and exit 1.
func FlagExits(t *testing.T, name string, failing ...string) {
	t.Helper()
	if code, stderr := runCommand(t, "-h"); code != 0 || !strings.HasPrefix(stderr, "Usage of "+name+":") ||
		strings.Contains(stderr, "help requested") {
		t.Errorf("%s -h: exit %d, stderr:\n%s", name, code, stderr)
	}
	if code, stderr := runCommand(t, "-bogus"); code != 2 ||
		strings.Count(stderr, "flag provided but not defined: -bogus") != 1 || !strings.Contains(stderr, "Usage of "+name+":") {
		t.Errorf("%s -bogus: exit %d, stderr:\n%s", name, code, stderr)
	}
	if code, stderr := runCommand(t, failing...); code != 1 || !strings.HasPrefix(stderr, name+": ") ||
		strings.Count(stderr, "\n") != 1 {
		t.Errorf("%s %v: exit %d, stderr:\n%s", name, failing, code, stderr)
	}
}
