// Command compdiff runs compiler-driven differential testing on a
// MiniC program: it compiles the program under a set of compiler
// implementations, executes the given inputs on every binary, and
// reports any output discrepancies (unstable code).
//
// Usage:
//
//	compdiff [flags] prog.mc [inputfile...]
//
// With no input files, the program runs once on empty input. Each
// input file's raw bytes are one test input.
//
// Flags:
//
//	-impls all|pair     implementation set (default all ten)
//	-hex BYTES          extra input given as hex, e.g. -hex 4c4e01
//	-normalize          filter timestamps/pointers before comparison
//	-diffdir DIR        persist diverging inputs under DIR/diffs/
//	-v                  print per-implementation outputs for diffs
//	-localize           trace-diff each discrepancy to its source line
//
// Exit status: 0 when every input is stable, 1 when one diverges or
// on a runtime error, 2 on a usage error.
package main

import (
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"compdiff"
)

// usageError marks command-line misuse: realMain maps it to exit 2,
// every other error to exit 1.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is the whole program behind a single exit point: usage
// errors exit 2; a divergence or a runtime error (unreadable file,
// program that does not build) exits 1; stable inputs exit 0.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.impls, "impls", "all", "implementation set: all | pair")
	fs.StringVar(&cfg.hex, "hex", "", "extra input as hex bytes")
	fs.BoolVar(&cfg.normalize, "normalize", false, "apply the RQ5 output normalizer")
	fs.StringVar(&cfg.diffdir, "diffdir", "", "persist diverging inputs under DIR/diffs/")
	fs.BoolVar(&cfg.verbose, "v", false, "print grouped outputs for each discrepancy")
	fs.BoolVar(&cfg.localize, "localize", false, "trace-diff each discrepancy to the first diverging source line")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	diverged, err := run(cfg, fs.Args(), stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "compdiff: %v\n", err)
		var ue usageError
		if errors.As(err, &ue) {
			return 2
		}
		return 1
	}
	if diverged {
		return 1
	}
	return 0
}

// config holds the flag values.
type config struct {
	impls, hex, diffdir          string
	normalize, verbose, localize bool
}

// run checks the arguments, builds the suite and cross-checks every
// input, reporting whether any diverged. Misuse comes back as a
// usageError before any file is read.
func run(cfg config, args []string, stdout, stderr io.Writer) (bool, error) {
	if len(args) < 1 {
		return false, usagef("usage: compdiff [flags] prog.mc [inputfile...]")
	}
	var set []compdiff.Implementation
	switch cfg.impls {
	case "all":
		set = compdiff.DefaultImplementations()
	case "pair":
		set = compdiff.RecommendedPair()
	default:
		return false, usagef("unknown -impls %q (want all or pair)", cfg.impls)
	}
	var hexInput []byte
	if cfg.hex != "" {
		data, err := hex.DecodeString(cfg.hex)
		if err != nil {
			return false, usagef("bad -hex: %v", err)
		}
		hexInput = data
	}

	src, err := os.ReadFile(args[0])
	if err != nil {
		return false, err
	}
	opts := compdiff.Options{}
	if cfg.normalize {
		opts.Normalizer = compdiff.DefaultNormalizer()
	}
	suite, err := compdiff.New(string(src), set, opts)
	if err != nil {
		return false, err
	}

	var inputs [][]byte
	for _, path := range args[1:] {
		data, err := os.ReadFile(path)
		if err != nil {
			return false, err
		}
		inputs = append(inputs, data)
	}
	if hexInput != nil {
		inputs = append(inputs, hexInput)
	}
	if len(inputs) == 0 {
		inputs = append(inputs, nil)
	}

	store := compdiff.NewDiffStore(cfg.diffdir)
	diverged := 0
	for i, in := range inputs {
		o := suite.Run(in)
		if !o.Diverged {
			fmt.Fprintf(stdout, "input %d (%d bytes): stable\n", i, len(in))
			continue
		}
		diverged++
		fmt.Fprintf(stdout, "input %d (%d bytes): DIVERGED (signature %016x)\n", i, len(in), o.Signature())
		if _, err := store.Add(o); err != nil {
			fmt.Fprintf(stderr, "compdiff: diff store: %v\n", err)
		}
		if cfg.verbose {
			for _, impls := range o.Groups() {
				names := make([]string, 0, len(impls))
				for _, j := range impls {
					names = append(names, suite.Names()[j])
				}
				fmt.Fprintf(stdout, "  %v:\n", names)
				fmt.Fprintf(stdout, "    %q\n", o.Results[impls[0]].Encode())
			}
		}
		if cfg.localize {
			loc, err := suite.Localize(o)
			if err != nil {
				fmt.Fprintf(stderr, "compdiff: localize: %v\n", err)
			} else {
				fmt.Fprintf(stdout, "  localization: %s\n", loc)
			}
		}
	}
	fmt.Fprintf(stdout, "\n%d of %d inputs diverged; %d unique discrepancies\n",
		diverged, len(inputs), len(store.Unique()))
	return diverged > 0, nil
}
