package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	midquery "repro"
)

// runMain runs mqr with args (none holding a space) in a child process,
// this test binary calling main, and returns its output and exit code.
func runMain(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestChildMain$")
	cmd.Env = append(os.Environ(), "MQR_MAIN_ARGS="+strings.Join(args, " "))
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return string(out), exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

// TestChildMain is main in runMain's child process, and a no-op otherwise.
func TestChildMain(t *testing.T) {
	if args := os.Getenv("MQR_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"mqr"}, strings.Fields(args)...)
		main()
	}
}

func TestSelectQueriesTakesEachName(t *testing.T) {
	got, err := selectQueries([]string{"@Q6", "@Q3"})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != (namedQuery{"Q6", midquery.Q("Q6").SQL}) ||
		got[1] != (namedQuery{"Q3", midquery.Q("Q3").SQL}) {
		t.Errorf("@Q6 @Q3 selected %v", got)
	}
	out, code := runMain(t, "-analyze", "-parallel", "2", "@Q6", "@Q3")
	if code != 0 || !strings.Contains(out, "=== Q6\n") || !strings.Contains(out, "=== Q3\n") {
		t.Errorf("mqr -analyze -parallel 2 @Q6 @Q3 exited %d:\n%s", code, out)
	}
}

func TestUnknownQueryIsAnError(t *testing.T) {
	if _, err := selectQueries([]string{"@Q99"}); err == nil || err.Error() != `tpcd: no query "Q99"` {
		t.Errorf("@Q99: %v", err)
	}
	if out, code := runMain(t, "@Q99"); code != 1 || out != "mqr: tpcd: no query \"Q99\"\n" {
		t.Errorf("mqr @Q99 exited %d: %q", code, out)
	}
}
