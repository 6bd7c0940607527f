package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExpObserveErrorIsNotAFailedExperiment: `dta exp -quick -only
// synth/0001 -trace f` has nothing to write (a synth experiment records
// no timeline). The command fails on that error alone, and the sweep
// line counts the one experiment, which passed, as passed.
func TestExpObserveErrorIsNotAFailedExperiment(t *testing.T) {
	dir := t.TempDir()
	_, run, err := parse([]string{"exp", "-quick", "-only", "synth/0001", "-trace", filepath.Join(dir, "t.json")})
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	saved := os.Stdout
	os.Stdout = stdout
	err = run()
	os.Stdout = saved
	out, rerr := os.ReadFile(stdout.Name())
	if rerr != nil {
		t.Fatal(rerr)
	}
	if err == nil || !strings.Contains(err.Error(), "observe: no simulations to write") {
		t.Fatalf("error %v, want the observe error", err)
	}
	if strings.Contains(err.Error(), "failures over") {
		t.Fatalf("error %q counts an experiment failure", err)
	}
	if !strings.Contains(string(out), "over 1 experiments (0 failed)") {
		t.Fatalf("sweep line does not count the passing experiment as passed:\n%s", out)
	}
}
