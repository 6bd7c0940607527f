package main

import (
	"flag"
	"strings"
	"testing"
)

// TestSharedFlagsMeanOneThing builds every command's flag set and
// requires each flag named like a shared one to carry the single
// definition's default and help text: no command may register a
// private copy.
func TestSharedFlagsMeanOneThing(t *testing.T) {
	ref := flag.NewFlagSet("ref", flag.ContinueOnError)
	for name := range sharedFlags {
		new(shared).use(ref, name)
	}
	users := map[string]int{}
	for _, cmd := range commands {
		fs, _ := newFlagSet(cmd, new(shared))
		fs.VisitAll(func(f *flag.Flag) {
			want := ref.Lookup(f.Name)
			if want == nil {
				return
			}
			users[f.Name]++
			if f.DefValue != want.DefValue || f.Usage != want.Usage {
				t.Errorf("dta %s -%s: default %q, help %q; the shared definition has default %q, help %q",
					cmd.name, f.Name, f.DefValue, f.Usage, want.DefValue, want.Usage)
			}
		})
	}
	for name := range sharedFlags {
		if users[name] < 2 {
			t.Errorf("shared flag -%s is registered by %d commands, want at least 2", name, users[name])
		}
	}
}

// TestBadMachineFlagsRefused: a -spes or -latency the machine cannot
// take is a command-line error naming the value, never a run at some
// default, and so is a flag the chosen mode would silently ignore.
func TestBadMachineFlagsRefused(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"exp", "-latency", "0"}, "-latency 0: want at least 1"},
		{[]string{"fuzz", "-latency", "0"}, "-latency 0: want at least 1"},
		{[]string{"run", "-spes", "0"}, "-spes 0: want 1 to 64"},
		{[]string{"run", "-spes", "65"}, "-spes 65: want 1 to 64"},
		{[]string{"serve", "-workers", "-1"}, "-workers -1: want 0 or more"},
		{[]string{"asm", "-bench", "mmul", "-check"}, "-check means nothing with -bench"},
		{[]string{"asm", "-bench", "mmul", "-roundtrip"}, "-roundtrip means nothing with -bench"},
		{[]string{"asm", "-quick", "-check", "prog.dta"}, "-quick means nothing with a .dta file"},
		{[]string{"run", "-n", "8", "prog.dta"}, "-n means nothing with a .dta file"},
		{[]string{"run", "-quick", "prog.dta"}, "-quick means nothing with a .dta file"},
		{[]string{"run", "-seed", "7", "prog.dta"}, "-seed means nothing with a .dta file"},
	} {
		_, run, err := parse(tc.args)
		if err == nil {
			// Mode conflicts are found once the command knows its mode,
			// before it reads a file or builds a program.
			err = run()
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("dta %q: %v, want an error containing %q", tc.args, err, tc.want)
		}
		if _, ok := err.(usageError); !ok {
			t.Errorf("dta %q: %T, want a usageError (exit status 2)", tc.args, err)
		}
	}
}
