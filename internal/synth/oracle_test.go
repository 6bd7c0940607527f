package synth_test

// External test package: the oracle is validated against the hand-built
// workloads (whose functional checks encode the shared refcheck
// reference semantics), which would otherwise be an import cycle.

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/prefetch"
	"repro/internal/program"
	"repro/internal/synth"
	"repro/internal/workloads"
)

// TestOracleAgainstWorkloadChecks: the untimed oracle must satisfy
// every hand-built workload's own functional check (tokens and written
// memory against the refcheck reference implementations). This pins
// the oracle's frame/mailbox/memory semantics to the same truth the
// timed machine is checked against.
func TestOracleAgainstWorkloadChecks(t *testing.T) {
	cases := []struct {
		name string
		p    workloads.Params
	}{
		{"vecsum", workloads.Params{N: 64, Workers: 4, Seed: 8}},
		{"mmul", workloads.Params{N: 8, Workers: 4, Seed: 8}},
		{"zoom", workloads.Params{N: 8, Workers: 4, Seed: 8}},
		{"stencil", workloads.Params{N: 10, Workers: 4, Seed: 8}},
		{"bitcnt", workloads.Params{N: 64, Chunk: 8, Seed: 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, ok := workloads.Get(tc.name)
			if !ok {
				t.Fatalf("workload %q not registered", tc.name)
			}
			prog, err := w.Build(tc.p)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			res, err := synth.RunOracle(prog, 0)
			if err != nil {
				t.Fatalf("oracle: %v", err)
			}
			if prog.Check == nil {
				t.Fatal("workload has no functional check")
			}
			if err := prog.Check(res.Reader(), res.Tokens); err != nil {
				t.Fatalf("workload check rejected oracle result: %v", err)
			}
			if res.Threads == 0 || res.Steps == 0 {
				t.Fatalf("implausible oracle accounting: %+v", res)
			}
			// The next workload's oracle runs on this recycled image and
			// must still satisfy its own check.
			res.Release()
		})
	}
}

// TestOracleRejectsTransformed: prefetched programs contain PF blocks
// and local-store accesses, which are outside the untimed model.
func TestOracleRejectsTransformed(t *testing.T) {
	w, _ := workloads.Get("vecsum")
	prog, err := w.Build(workloads.Params{N: 64, Workers: 4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	pf, err := prefetch.Transform(prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := synth.RunOracle(pf, 0); err == nil {
		t.Fatal("oracle accepted a transformed program")
	} else if !strings.Contains(err.Error(), "transformed") && !strings.Contains(err.Error(), "PF block") {
		t.Fatalf("unexpected rejection: %v", err)
	}
}

// TestOracleDeadlock: a thread whose synchronisation count is never
// satisfied must surface as a deadlock, not a hang or a pass.
func TestOracleDeadlock(t *testing.T) {
	b := program.NewBuilder("deadlock")
	waiter := b.Template("waiter")
	wps := waiter.PS()
	wps.StoreMailbox(program.R(1), program.R(2), 0)
	wps.Ffree()
	wps.Stop()
	root := b.Template("root")
	ps := root.PS()
	ps.Falloc(program.R(1), waiter, 2) // SC=2 but only one store follows
	ps.Store(program.R(0), program.R(1), 0)
	ps.Ffree()
	ps.Stop()
	b.Entry(root, 1)
	b.ExpectTokens(1)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = synth.RunOracle(prog, 0)
	if !errors.Is(err, synth.ErrOracleDeadlock) {
		t.Fatalf("got %v, want ErrOracleDeadlock", err)
	}
}

// TestOracleStepBudget: runaway loops hit the instruction budget
// instead of hanging the checker.
func TestOracleStepBudget(t *testing.T) {
	b := program.NewBuilder("runaway")
	root := b.Template("root")
	ex := root.EX()
	ex.Label("spin")
	ex.Jmp("spin")
	ps := root.PS()
	ps.Ffree()
	ps.Stop()
	b.Entry(root, 1)
	b.ExpectTokens(1)
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = synth.RunOracle(prog, 10_000)
	if !errors.Is(err, synth.ErrOracleSteps) {
		t.Fatalf("got %v, want ErrOracleSteps", err)
	}
}
