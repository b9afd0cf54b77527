package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nocs/internal/bench"
)

// failingExp is a test-only experiment whose one check fails.
const failingExp = "XFAIL"

func init() {
	bench.Register(&bench.Experiment{
		ID:    failingExp,
		Title: "an experiment whose claim does not hold",
		Suite: bench.SuiteSystem,
		Run: func(bench.RunConfig) (*bench.Result, error) {
			return &bench.Result{Checks: []bench.Check{
				{Name: "a < b", Holds: true, Detail: "a 1, b 2"},
				{Name: "b < a", Holds: false, Detail: "a 1, b 2"},
			}}, nil
		},
	})
}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestFormatRejectsUnknown: an unknown -format is a usage error, like an
// unknown -faults plan, not a silent fallback to table output.
func TestFormatRejectsUnknown(t *testing.T) {
	for _, f := range []string{"xml", "JSON", ""} {
		code, out, errs := runCLI(t, "-exp", "T1", "-quick", "-format", f)
		if code != 2 || out != "" || !strings.Contains(errs, "-format") {
			t.Fatalf("-format %q: exit %d, stdout %q, stderr %q; want exit 2 and no output", f, code, out, errs)
		}
	}
}

// TestFormatJSON: -format json emits one array of Results that decodes
// back to the table rendering.
func TestFormatJSON(t *testing.T) {
	code, out, errs := runCLI(t, "-exp", "T1,E1", "-quick", "-format", "json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	var res []*bench.Result
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	if len(res) != 2 || res[0].ID != "T1" || res[1].ID != "E1" {
		t.Fatalf("got %d results, want T1 and E1", len(res))
	}
	_, table, _ := runCLI(t, "-exp", "T1,E1", "-quick")
	if got := res[0].String() + "\n" + res[1].String() + "\n"; got != table {
		t.Fatalf("JSON results render differently from -format table:\n%s\nvs\n%s", got, table)
	}
	if len(res[0].Checks) == 0 || !strings.Contains(out, `"checks"`) {
		t.Fatalf("T1's JSON carries no checks:\n%s", out)
	}
}

// TestFailedCheckExits1: a failed check makes nocsim exit 1 and names the
// experiment and the check on stderr, while the results still print; a
// check that holds is not reported.
func TestFailedCheckExits1(t *testing.T) {
	code, out, errs := runCLI(t, "-exp", failingExp)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr %q", code, errs)
	}
	if want := "experiment XFAIL: check failed: b < a: a 1, b 2\n"; errs != want {
		t.Fatalf("stderr %q, want %q", errs, want)
	}
	if !strings.Contains(out, "### XFAIL") || !strings.Contains(out, "check failed: b < a") {
		t.Fatalf("stdout does not show the failed check:\n%s", out)
	}
}

// TestEnduranceResumeThroughExp: E1's file checkpointing works through
// -exp E1, and a resumed run prints the straight-through run's output.
func TestEnduranceResumeThroughExp(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "e1.ckpt")
	code, straight, errs := runCLI(t, "-exp", "E1", "-quick", "-checkpoint-every", "30000", "-checkpoint", ckpt)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	if !strings.Contains(errs, "wrote 3 checkpoints") {
		t.Fatalf("stderr %q does not report 3 checkpoints", errs)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatal(err)
	}
	code, resumed, errs := runCLI(t, "-exp", "E1", "-quick", "-resume", ckpt)
	if code != 0 {
		t.Fatalf("resume exit %d: %s", code, errs)
	}
	if resumed != straight {
		t.Fatalf("resumed output differs:\n%s\nvs\n%s", resumed, straight)
	}
}
