// Command dtasm assembles, disassembles and runs DTA programs in the
// textual assembly format (see internal/asm).
//
// Usage (flags go before the file: flag parsing stops at the first
// operand):
//
//	dtasm -run [-spes 8] [-latency 150] [-prefetch] prog.dta
//	dtasm -check [-prefetch] prog.dta       # assemble and validate only
//	dtasm -roundtrip [-prefetch] prog.dta   # assemble, format, print
//	dtasm [-n 8] [-prefetch] -dump-workload mmul  # print a builder workload as assembly
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/asm"
	"repro/internal/cell"
	"repro/internal/prefetch"
	"repro/internal/workloads"
)

func main() {
	var (
		runIt     = flag.Bool("run", false, "assemble and execute")
		check     = flag.Bool("check", false, "assemble and validate only")
		roundtrip = flag.Bool("roundtrip", false, "assemble and print the formatted program")
		dump      = flag.String("dump-workload", "", "print a registered workload as assembly")
		spes      = flag.Int("spes", 8, "number of SPEs")
		latency   = flag.Int("latency", 150, "memory latency")
		pf        = flag.Bool("prefetch", false, "apply the prefetch transformation")
		n         = flag.Int("n", 8, "workload size for -dump-workload")
	)
	flag.Parse()

	if *dump != "" {
		w, ok := workloads.Get(*dump)
		if !ok {
			fatal("unknown workload %q (have %v)", *dump, workloads.Names())
		}
		prog, err := w.Build(workloads.Params{N: *n, Workers: 4, Chunk: 8, Seed: 42})
		if err != nil {
			fatal("build: %v", err)
		}
		if *pf {
			if prog, err = prefetch.Transform(prog); err != nil {
				fatal("transform: %v", err)
			}
		}
		fmt.Print(asm.Format(prog))
		return
	}

	if flag.NArg() != 1 {
		fatal("need exactly one .dta file, after the flags (or -dump-workload); got %q", flag.Args())
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal("%v", err)
	}
	prog, err := asm.Parse(string(src))
	if err != nil {
		fatal("%v", err)
	}
	if *pf {
		if prog, err = prefetch.Transform(prog); err != nil {
			fatal("transform: %v", err)
		}
	}

	switch {
	case *check:
		fmt.Printf("ok: %d templates, %d instructions, %d segments\n",
			len(prog.Templates), prog.CodeLen(), len(prog.Segments))
	case *roundtrip:
		fmt.Print(asm.Format(prog))
	case *runIt:
		cfg := cell.DefaultConfig()
		cfg.SPEs = *spes
		cfg.Mem.Latency = *latency
		m, err := cell.New(cfg, prog)
		if err != nil {
			fatal("%v", err)
		}
		res, err := m.Run()
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("completed in %d cycles; tokens %v; %d threads\n",
			res.Cycles, res.Tokens, res.Agg.Threads)
	default:
		fatal("choose one of -run, -check, -roundtrip")
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dtasm: "+format+"\n", args...)
	os.Exit(1)
}
