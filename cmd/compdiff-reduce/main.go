// Command compdiff-reduce delta-debugs a diverging finding — a MiniC
// program plus the input that triggers the divergence — down to a
// minimal reproducer with the same divergence fingerprint, then writes
// the minimized program and the fingerprint record next to each other.
//
// Usage:
//
//	compdiff-reduce -src finding.mc
//	compdiff-reduce -src finding.mc -input crash.bin -out triaged/ -budget 2000
//
// Flags:
//
//	-src FILE     the diverging MiniC program (required)
//	-input FILE   the triggering input (omit for the empty input)
//	-out DIR      output directory (default "."): writes reduced.mc,
//	              reduced.input (when non-empty), and fingerprint.json
//	-budget N     maximum differential suite executions to spend
//	-jobs N       k-way compile fan-out (lowerings run at once per build)
//
// Compile-stage findings reduce too: when the program itself diverges
// at compile time (accept/reject split, internal compiler error, or
// diagnostic mismatch), reduction preserves the compile fingerprint —
// same partition, same normalized crash/diagnostic keys — and the
// input is irrelevant (no reduced.input is written).
//
// Invalid flag values (a missing -src, a non-positive -budget or
// -jobs) are rejected up front with exit code 2. A program that does
// not diverge under the ten implementations is a normal failure (exit
// 1): there is nothing to reduce.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"compdiff"
)

// cliConfig holds every flag value that validation looks at. Keeping
// it a plain struct keeps validate a pure function the tests can
// drive without touching the flag package or os.Args.
type cliConfig struct {
	src    string
	input  string
	out    string
	budget int
	jobs   int
}

// validate rejects nonsensical flag combinations up front, before they
// reach the reducer where they would be silently reinterpreted.
func (c cliConfig) validate() error {
	if c.src == "" {
		return fmt.Errorf("need -src: the diverging MiniC program to reduce")
	}
	if c.budget < 1 {
		return fmt.Errorf("-budget %d: the reduction needs at least one suite execution", c.budget)
	}
	if c.jobs < 1 {
		return fmt.Errorf("-jobs %d: the compile fan-out needs at least one lowering at a time", c.jobs)
	}
	if c.out == "" {
		return fmt.Errorf("-out cannot be empty; use . for the current directory")
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("compdiff-reduce: ")
	srcPath := flag.String("src", "", "diverging MiniC source file (required)")
	inputPath := flag.String("input", "", "triggering input file (empty input when omitted)")
	outDir := flag.String("out", ".", "output directory for reduced.mc and fingerprint.json")
	budget := flag.Int("budget", 4000, "maximum differential suite executions")
	jobs := flag.Int("jobs", 1, "k-way compile fan-out: lowerings run at once per build")
	flag.Parse()

	cfg := cliConfig{
		src:    *srcPath,
		input:  *inputPath,
		out:    *outDir,
		budget: *budget,
		jobs:   *jobs,
	}
	if err := cfg.validate(); err != nil {
		fmt.Fprintf(os.Stderr, "compdiff-reduce: %v\n", err)
		os.Exit(2)
	}
	if err := run(cfg, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes one reduction per the validated config, writing the
// artifacts under cfg.out and a human summary to w.
func run(cfg cliConfig, w io.Writer) error {
	src, err := os.ReadFile(cfg.src)
	if err != nil {
		return err
	}
	var input []byte
	if cfg.input != "" {
		input, err = os.ReadFile(cfg.input)
		if err != nil {
			return err
		}
	}

	red, err := compdiff.Reduce(string(src), input, compdiff.ReduceOptions{
		Suite:        compdiff.Options{Parallelism: cfg.jobs},
		MaxSuiteRuns: cfg.budget,
	})
	if err != nil {
		return err
	}

	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	reducedPath := filepath.Join(cfg.out, "reduced.mc")
	if err := os.WriteFile(reducedPath, []byte(red.Source), 0o644); err != nil {
		return err
	}
	if len(red.Input) > 0 {
		if err := os.WriteFile(filepath.Join(cfg.out, "reduced.input"), red.Input, 0o644); err != nil {
			return err
		}
	}
	fpJSON, err := json.MarshalIndent(red.Fingerprint, "", "  ")
	if err != nil {
		return err
	}
	fpPath := filepath.Join(cfg.out, "fingerprint.json")
	if err := os.WriteFile(fpPath, append(fpJSON, '\n'), 0o644); err != nil {
		return err
	}

	fmt.Fprintf(w, "source      : %d -> %d bytes (%.0f%% smaller)\n",
		red.OrigSourceBytes, len(red.Source), red.SourceShrink()*100)
	fmt.Fprintf(w, "input       : %d -> %d bytes\n", red.OrigInputBytes, len(red.Input))
	fmt.Fprintf(w, "fingerprint : %s\n", red.Fingerprint)
	fmt.Fprintf(w, "cost        : %d suite runs, %d builds (budget %d)\n",
		red.SuiteRuns, red.Builds, cfg.budget)
	fmt.Fprintf(w, "wrote %s, %s\n", reducedPath, fpPath)
	return nil
}
