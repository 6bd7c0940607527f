// Command dta is the front door of the CellDTA reproduction: one binary
// whose commands run a benchmark (run), regenerate the paper's
// evaluation (exp), fuzz the prefetch transformation (fuzz), assemble
// programs (asm) and serve the harness over HTTP (serve). `dta` alone
// lists them; `dta <command> -h` lists a command's flags.
//
// A flag that several commands take (-spes, -latency, -seed, -quick,
// -prefetch, -bench, -workers, -trace, -profile, -cpuprofile,
// -memprofile) is defined once in this file, so it has the same
// default, help text and meaning in each of them, and its value is
// checked when the command line is parsed. Exit status: 0 on success, 1
// when the command fails, 2 for a bad command line.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/cell"
	"repro/internal/obs"
	"repro/internal/trace"
)

// A command is one subcommand. setup registers its flags on fs, the
// shared ones through sh, and returns the function that runs the
// command on the operands left after parsing.
type command struct {
	name, operands, summary string
	setup                   func(fs *flag.FlagSet, sh *shared) func(args []string) error
}

var commands = []command{
	{"run", "[prog.dta]", "run one benchmark (-bench) or one assembly file and print its statistics", setupRun},
	{"exp", "", "regenerate the paper's tables and figures and the ablations", setupExp},
	{"fuzz", "", "check generated scenarios three ways: functional oracle, original and prefetched", setupFuzz},
	{"asm", "[prog.dta]", "print a benchmark (-bench) as assembly, or check (-check) or format (-roundtrip) a file", setupAsm},
	{"serve", "", "serve the experiment harness over HTTP (see SERVICE.md)", setupServe},
}

// shared holds the values of the flags several commands take.
type shared struct {
	spes, latency, workers             int
	seed                               uint64
	quick, prefetch                    bool
	bench, trace, profile, cpu, memory string
}

// sharedFlags defines each shared flag once: a command registers it
// with shared.use and gets this default and help text.
var sharedFlags = map[string]func(fs *flag.FlagSet, sh *shared){
	"spes": func(fs *flag.FlagSet, sh *shared) {
		fs.IntVar(&sh.spes, "spes", 8, fmt.Sprintf("number of SPEs, 1 to %d", cell.MaxSPEs))
	},
	"latency": func(fs *flag.FlagSet, sh *shared) {
		fs.IntVar(&sh.latency, "latency", 150, "main-memory latency in cycles, at least 1")
	},
	"seed": func(fs *flag.FlagSet, sh *shared) {
		fs.Uint64Var(&sh.seed, "seed", 42, "workload input seed")
	},
	"quick": func(fs *flag.FlagSet, sh *shared) {
		fs.BoolVar(&sh.quick, "quick", false, "use the harness's quick problem sizes instead of the paper's")
	},
	"prefetch": func(fs *flag.FlagSet, sh *shared) {
		fs.BoolVar(&sh.prefetch, "prefetch", false, "apply the paper's DMA-prefetching transformation")
	},
	"bench": func(fs *flag.FlagSet, sh *shared) {
		fs.StringVar(&sh.bench, "bench", "", "registered benchmark: bitcnt, mmul, zoom, ... (dta run -list describes them all)")
	},
	"workers": func(fs *flag.FlagSet, sh *shared) {
		fs.IntVar(&sh.workers, "workers", 0, "host goroutines that run simulations (0 = one per CPU)")
	},
	"trace": func(fs *flag.FlagSet, sh *shared) {
		fs.StringVar(&sh.trace, "trace", "", "write a Chrome trace-event timeline (Perfetto, chrome://tracing) of the simulations to this file")
	},
	"profile": func(fs *flag.FlagSet, sh *shared) {
		fs.StringVar(&sh.profile, "profile", "", "write a guest cycle profile (gzipped pprof) of the simulations to this file")
	},
	"cpuprofile": func(fs *flag.FlagSet, sh *shared) {
		fs.StringVar(&sh.cpu, "cpuprofile", "", "write a CPU profile of this process to this file")
	},
	"memprofile": func(fs *flag.FlagSet, sh *shared) {
		fs.StringVar(&sh.memory, "memprofile", "", "write a heap profile of this process to this file on exit")
	},
}

// use registers the named shared flags on fs.
func (sh *shared) use(fs *flag.FlagSet, names ...string) {
	for _, name := range names {
		def, ok := sharedFlags[name]
		if !ok {
			panic("dta: no shared flag -" + name)
		}
		def(fs, sh)
	}
}

// check validates the shared flags fs registered, once fs is parsed.
func (sh *shared) check(fs *flag.FlagSet) error {
	if fs.Lookup("spes") != nil && (sh.spes < 1 || sh.spes > cell.MaxSPEs) {
		return fmt.Errorf("-spes %d: want 1 to %d", sh.spes, cell.MaxSPEs)
	}
	if fs.Lookup("latency") != nil && sh.latency < 1 {
		return fmt.Errorf("-latency %d: want at least 1 (the harness and the fuzzer read 0 as the paper's 150 cycles)", sh.latency)
	}
	if fs.Lookup("workers") != nil && sh.workers < 0 {
		return fmt.Errorf("-workers %d: want 0 or more", sh.workers)
	}
	return nil
}

// refuseSet returns a usage error if the command line set any of the
// named flags, which mean nothing in the mode where (such as "with
// -bench"): a flag is refused rather than silently ignored.
func refuseSet(fs *flag.FlagSet, where string, names ...string) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		for _, name := range names {
			if f.Name == name && err == nil {
				err = usagef("-%s means nothing %s", name, where)
			}
		}
	})
	return err
}

// usageError is a bad command line: dta exits 2 for it.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// newFlagSet builds cmd's flag set and returns it with the function
// that runs cmd once the set is parsed.
func newFlagSet(cmd command, sh *shared) (*flag.FlagSet, func(args []string) error) {
	fs := flag.NewFlagSet("dta "+cmd.name, flag.ContinueOnError)
	run := cmd.setup(fs, sh)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: dta %s [flags] %s\n%s\n\nflags (before any operand):\n", cmd.name, cmd.operands, cmd.summary)
		fs.PrintDefaults()
	}
	return fs, run
}

// parse finds the command args name, parses and checks its flags, and
// returns the command bound to its operands.
func parse(args []string) (name string, run func() error, err error) {
	if len(args) == 0 {
		return "", nil, usagef("no command")
	}
	for _, cmd := range commands {
		if cmd.name != args[0] {
			continue
		}
		sh := new(shared)
		fs, runCmd := newFlagSet(cmd, sh)
		if err := fs.Parse(args[1:]); err != nil {
			return cmd.name, nil, usageError{err}
		}
		if err := sh.check(fs); err != nil {
			return cmd.name, nil, usageError{err}
		}
		return cmd.name, func() error {
			return withHostProfiles(sh.cpu, sh.memory, func() error { return runCmd(fs.Args()) })
		}, nil
	}
	return "", nil, usagef("unknown command %q", args[0])
}

func main() {
	os.Exit(dta(os.Args[1:]))
}

// dta runs one command line and returns the exit status.
func dta(args []string) int {
	name, run, err := parse(args)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err == nil {
		err = run()
	}
	if err == nil {
		return 0
	}
	if name == "" {
		fmt.Fprintf(os.Stderr, "dta: %v\nusage: dta <command> [flags]\n", err)
		for _, cmd := range commands {
			fmt.Fprintf(os.Stderr, "  %-6s %s\n", cmd.name, cmd.summary)
		}
	} else {
		fmt.Fprintf(os.Stderr, "dta %s: %v\n", name, err)
	}
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// withHostProfiles runs fn under a CPU profile of this process written
// to cpuPath, then writes a heap profile to memPath ("" skips either).
// These profile the simulator itself; -profile profiles the simulated
// machine (see OBSERVABILITY.md).
func withHostProfiles(cpuPath, memPath string, fn func() error) error {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			}
		}()
	}
	err := fn()
	if memPath != "" {
		runtime.GC() // materialise final live-heap numbers
		if werr := writeFile(memPath, pprof.WriteHeapProfile); werr != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", werr)
		}
	}
	return err
}

// writeObserved writes runs to the -trace file as one Chrome
// trace-event document (load it in Perfetto or chrome://tracing) and to
// the -profile file as one gzipped pprof protobuf, each run under its
// label (inspect with `go tool pprof`), whichever of the two is set;
// see OBSERVABILITY.md. A timeline truncated at the per-track cap is
// reported on stderr.
func writeObserved(sh *shared, runs []obs.Run) error {
	if len(runs) == 0 {
		return fmt.Errorf("observe: no simulations to write: every run was a cache hit, or only synth/* experiments ran, which record nothing (observe a corpus seed with dta fuzz -start N -seeds 1 -trace)")
	}
	var errs []error
	for _, out := range []struct {
		what, path string
		write      func(io.Writer, []obs.Run) error
	}{{"trace", sh.trace, obs.WriteTrace}, {"profile", sh.profile, obs.WriteProfile}} {
		if out.path == "" {
			continue
		}
		if err := writeFile(out.path, func(w io.Writer) error { return out.write(w, runs) }); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", out.what, err))
			continue
		}
		fmt.Fprintf(os.Stderr, "%s: wrote %d simulations to %s\n", out.what, len(runs), out.path)
	}
	if n := obs.DroppedSpans(runs); n > 0 && sh.trace != "" {
		fmt.Fprintf(os.Stderr, "trace: %d spans over the per-track cap of %d were dropped; the timeline is truncated\n",
			n, trace.DefaultSpanCap)
	}
	return errors.Join(errs...)
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
