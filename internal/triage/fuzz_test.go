package triage

// Native `go test -fuzz` target for the reducer: arbitrary input
// bytes drive a host program with several input-gated unstable
// constructs, and on every input whose execution diverges, Reduce's
// full contract is asserted from scratch — the minimized program
// parses, passes sema, is no larger than the original, and reproduces
// the original divergence fingerprint exactly. Run as a smoke test
// via `make fuzz-smoke`, or at length with
// `go test -fuzz=FuzzReduce ./internal/triage/`.

import (
	"testing"

	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
)

// fuzzHostSrc gates one divergence flavor per first-byte value, so the
// fuzzer steers between stable executions (skipped) and several
// distinct fingerprints (each of which must be preserved).
const fuzzHostSrc = `
int main() {
    char buf[8];
    long n = read_input(buf, 8L);
    if (n < 1L) { printf("none\n"); return 0; }
    int b = (int)buf[0];
    if (b == 88) { printf("X %d\n", 100 / (b - 88)); }
    if (b == 70) {
        char* p = (char*)malloc(8L);
        free(p);
        free(p);
    }
    if (b == 85) {
        int x;
        printf("U %d\n", x);
    }
    printf("end %d %ld\n", b, n);
    return 0;
}
`

// compileHostSrc is the compile-stage host: optimizing gcc rejects
// the constant division outright, everyone else accepts with a
// warning, so the program itself is a compile-divergence finding.
const compileHostSrc = `
int pad_helper(int v) { return v * 3 + 1; }
int main() {
    int pad = pad_helper(5);
    printf("pad %d\n", pad);
    int d = 1 / 0;
    return d;
}
`

func FuzzReduce(f *testing.F) {
	suite, err := buildSource(fuzzHostSrc)
	if err != nil {
		f.Fatal(err)
	}

	f.Add([]byte("X"))
	f.Add([]byte("Fpadding"))
	f.Add([]byte("Uaa"))
	f.Add([]byte("zz"))
	f.Add([]byte{})
	f.Add([]byte("K"))
	f.Add([]byte("Kwith trailing input bytes"))

	f.Fuzz(func(t *testing.T, input []byte) {
		if len(input) > 32 {
			input = input[:32]
		}
		if len(input) > 0 && input[0] == 'K' {
			// Compile-stage branch: the host diverges at compile time, so
			// Reduce must preserve the compile fingerprint without ever
			// running the VM, and the input — whatever the fuzzer put
			// after the gate byte — must drop out as irrelevant.
			fuzzCompileReduce(t, input)
			return
		}
		o := suite.Run(input)
		if !o.Diverged {
			t.Skip("stable input")
		}
		orig := Of(o)

		red, err := Reduce(fuzzHostSrc, input, ReduceOptions{MaxSuiteRuns: 120})
		if err != nil {
			t.Fatal(err)
		}
		if red.SuiteRuns > 120 {
			t.Fatalf("budget overrun: %d suite runs", red.SuiteRuns)
		}
		if len(red.Source) > len(fuzzHostSrc) || len(red.Input) > len(input) {
			t.Fatalf("reduction grew the finding: %d/%d source bytes, %d/%d input bytes",
				len(red.Source), len(fuzzHostSrc), len(red.Input), len(input))
		}
		if !red.Fingerprint.Equal(orig) {
			t.Fatalf("reported fingerprint drifted: %v vs original %v", red.Fingerprint, orig)
		}

		// Re-validate the output from scratch, trusting nothing the
		// reducer cached: parse, check, rebuild, re-run, re-fingerprint.
		prog, err := parser.Parse(red.Source)
		if err != nil {
			t.Fatalf("reduced source does not parse: %v\n%s", err, red.Source)
		}
		if _, err := sema.Check(prog); err != nil {
			t.Fatalf("reduced source fails sema: %v\n%s", err, red.Source)
		}
		rsuite, err := buildSource(red.Source)
		if err != nil {
			t.Fatal(err)
		}
		ro := rsuite.Run(red.Input)
		if !ro.Diverged {
			t.Fatalf("reduced finding no longer diverges:\n%s", red.Source)
		}
		if fp := Of(ro); !fp.Equal(orig) {
			t.Fatalf("reduced fingerprint %v != original %v\n%s", fp, orig, red.Source)
		}
	})
}

// fuzzCompileReduce asserts Reduce's contract on a compile-stage
// finding: same fingerprint, no growth, no retained input, and the
// output re-validates from scratch.
func fuzzCompileReduce(t *testing.T, input []byte) {
	_, co, err := assembleSource(compileHostSrc)
	if err != nil {
		t.Fatal(err)
	}
	orig, ok := OfCompile(co)
	if !ok {
		t.Fatal("compile host is not a finding")
	}
	if orig.Kind == KindRuntime {
		t.Fatalf("compile host fingerprints as runtime: %s", orig)
	}

	red, err := Reduce(compileHostSrc, input, ReduceOptions{MaxSuiteRuns: 120})
	if err != nil {
		t.Fatal(err)
	}
	if red.SuiteRuns > 120 {
		t.Fatalf("budget overrun: %d suite runs", red.SuiteRuns)
	}
	if len(red.Source) > len(compileHostSrc) {
		t.Fatalf("reduction grew the finding: %d/%d source bytes", len(red.Source), len(compileHostSrc))
	}
	if len(red.Input) != 0 {
		t.Fatalf("compile-stage reduction kept input %q", red.Input)
	}
	if !red.Fingerprint.Equal(orig) {
		t.Fatalf("reported fingerprint drifted: %v vs original %v", red.Fingerprint, orig)
	}

	// Re-validate from scratch, trusting nothing the reducer cached.
	rsuite, rco, err := assembleSource(red.Source)
	if err != nil {
		t.Fatalf("reduced source does not build: %v\n%s", err, red.Source)
	}
	if rsuite != nil {
		t.Fatalf("reduced source compiles clean everywhere:\n%s", red.Source)
	}
	if fp, ok := OfCompile(rco); !ok || !fp.Equal(orig) {
		t.Fatalf("reduced fingerprint %v != original %v\n%s", fp, orig, red.Source)
	}
}
