package main

import (
	"flag"
	"fmt"

	"repro/internal/asm"
	"repro/internal/harness"
)

// setupAsm: `dta asm` works with the textual assembly format (see
// internal/asm). -bench prints a registered benchmark, built as the
// experiments build it, as assembly. With a .dta file operand it
// assembles and validates the file (-check) or prints it formatted
// (-roundtrip); `dta run prog.dta` runs one.
func setupAsm(fs *flag.FlagSet, sh *shared) func([]string) error {
	sh.use(fs, "bench", "quick", "prefetch")
	check := fs.Bool("check", false, "assemble and validate the file only")
	roundtrip := fs.Bool("roundtrip", false, "assemble the file and print the formatted program")
	return func(args []string) error {
		if sh.bench != "" {
			if len(args) > 0 {
				return usagef("-bench takes no operands (got %q)", args)
			}
			if err := refuseSet(fs, "with -bench", "check", "roundtrip"); err != nil {
				return err
			}
			prog, err := harness.BenchProgram(harness.Options{Quick: sh.quick}, sh.bench, 0, sh.prefetch)
			if err != nil {
				return err
			}
			fmt.Print(asm.Format(prog))
			return nil
		}
		if len(args) != 1 || *check == *roundtrip {
			return usagef("want -bench, or -check or -roundtrip and one .dta file operand")
		}
		if err := refuseSet(fs, "with a .dta file", "quick"); err != nil {
			return err
		}
		prog, err := parseFile(args[0], sh.prefetch)
		if err != nil {
			return err
		}
		if *check {
			fmt.Printf("ok: %d templates, %d instructions, %d segments\n",
				len(prog.Templates), prog.CodeLen(), len(prog.Segments))
		} else {
			fmt.Print(asm.Format(prog))
		}
		return nil
	}
}
