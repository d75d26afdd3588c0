package triage

import (
	"strings"
	"testing"

	"compdiff/internal/core"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
)

// The reduction corpus: one bloated finding per UB class. Each program
// embeds a small divergence-triggering core inside removable filler —
// helper functions, globals, dead locals, redundant control flow — and
// names every filler entity with a "pad" marker so the tests can assert
// the reducer actually deleted it rather than merely shrinking bytes.
var reduceCases = []struct {
	name  string
	src   string
	input []byte
	// gone are substrings that must not survive reduction.
	gone []string
	// kept are substrings the minimal form must still contain (the
	// construct that *is* the bug).
	kept []string
	// minShrink is the required source-byte reduction fraction.
	minShrink float64
}{
	{
		name: "oob-read",
		src: `
int pad_mix(int a, int b) {
    int r = a * 31 + b;
    return r ^ (a - b);
}
int pad_unused_global = 1234;
char* pad_banner = "out of bounds corpus entry";
int main() {
    int pad_before = pad_mix(3, 4);
    int a[4];
    int i = 0;
    while (i < 4) { a[i] = i * 3; i = i + 1; }
    int pad_after = pad_before + 10;
    printf("%d\n", a[4 + (int)input_size()]);
    if (pad_after > 100) { printf("pad unreachable\n"); }
    return 0;
}
`,
		// The frame-padding locals (pad_before and the pad_mix call
		// feeding it) survive: an OOB stack read is layout-sensitive,
		// so deleting a local moves the slot a[4] lands on and the
		// partition drifts. Everything layout-neutral must go.
		gone:      []string{"pad_unused_global", "pad_banner", "pad_after", "while"},
		kept:      []string{"a[4]", "printf"},
		minShrink: 0.5,
	},
	{
		name: "signed-overflow",
		src: `
long pad_sum3(long a, long b, long c) {
    return a + b + c;
}
int pad_flag = 0;
int main() {
    long pad_acc = pad_sum3(1L, 2L, 3L);
    int x = 2147483647;
    int n = (int)input_size() + 1;
    if (n < 0) { return 1; }
    if (pad_acc > 1000L) { pad_flag = 1; }
    if (x + n < x) { printf("wrapped\n"); return 2; }
    printf("ok %d\n", x + n);
    return 0;
}
`,
		gone:      []string{"pad_sum3", "pad_acc", "pad_flag"},
		kept:      []string{"< x"},
		minShrink: 0.45,
	},
	{
		name: "uninit-read",
		src: `
int pad_helper(int v) {
    int w = v + 100;
    return w * 2;
}
char* pad_tag = "uninitialized read";
int main() {
    int pad_a = pad_helper(7);
    int pad_b = pad_a - 3;
    int x;
    if (input_size() > 100L) { x = 1; }
    printf("%d\n", x);
    if (pad_b == -999) { printf("pad never\n"); }
    return 0;
}
`,
		// The minimal form is startlingly small: dropping main's
		// return statement makes the exit status itself the
		// uninitialized read, with the same per-implementation
		// fill-personality partition as the printed local. That is
		// signature-stability working as intended — the reduced
		// program exhibits the same disagreement shape, not the same
		// checksums.
		gone:      []string{"pad_helper", "pad_tag", "pad_a", "pad_b", "printf"},
		kept:      nil,
		minShrink: 0.85,
	},
	{
		name: "use-after-free",
		src: `
int pad_id(int x) { return x; }
long pad_counter = 0L;
int main() {
    pad_counter = pad_counter + 1L;
    int* p = (int*)malloc(16L);
    *p = 12345;
    int pad_copy = pad_id(*p);
    free(p);
    int* q = (int*)malloc(16L);
    *q = 999;
    printf("%d %d\n", *p, *q);
    if (pad_copy < 0) { printf("pad impossible\n"); }
    return 0;
}
`,
		gone:      []string{"pad_id", "pad_counter", "pad_copy"},
		kept:      []string{"free(p)"},
		minShrink: 0.4,
	},
}

func TestReduceUBClasses(t *testing.T) {
	for _, tc := range reduceCases {
		t.Run(tc.name, func(t *testing.T) {
			red, err := Reduce(tc.src, tc.input, ReduceOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if red.SuiteRuns > DefaultBudget {
				t.Fatalf("spent %d suite runs, budget %d", red.SuiteRuns, DefaultBudget)
			}
			if got := red.SourceShrink(); got < tc.minShrink {
				t.Errorf("shrink %.0f%% < required %.0f%%\nreduced:\n%s",
					got*100, tc.minShrink*100, red.Source)
			}
			for _, s := range tc.gone {
				if strings.Contains(red.Source, s) {
					t.Errorf("filler %q survived reduction:\n%s", s, red.Source)
				}
			}
			for _, s := range tc.kept {
				if !strings.Contains(red.Source, s) {
					t.Errorf("bug construct %q reduced away:\n%s", s, red.Source)
				}
			}
			assertReproduces(t, red)
		})
	}
}

// assertReproduces re-validates the reducer's contract from scratch:
// the minimized source parses, passes sema, and its suite run diverges
// with exactly the reported fingerprint.
func assertReproduces(t *testing.T, red *Reduction) {
	t.Helper()
	prog, err := parser.Parse(red.Source)
	if err != nil {
		t.Fatalf("reduced source does not parse: %v", err)
	}
	if _, err := sema.Check(prog); err != nil {
		t.Fatalf("reduced source fails sema: %v", err)
	}
	suite, err := buildSource(red.Source)
	if err != nil {
		t.Fatal(err)
	}
	o := suite.Run(red.Input)
	if !o.Diverged {
		t.Fatal("reduced finding no longer diverges")
	}
	if fp := Of(o); !fp.Equal(red.Fingerprint) {
		t.Fatalf("fingerprint drifted: reduced %v, reported %v", fp, red.Fingerprint)
	}
}

func TestReduceInputDdmin(t *testing.T) {
	// Divergence requires the first input byte to be 'X' (ASCII 88):
	// the divisor reads it directly, so neither AST reduction nor
	// ddmin can make the divergence input-independent — an empty
	// input would divide by uninitialized garbage and change the
	// partition. The trailing ballast is what ddmin must strip.
	src := `
int main() {
    char buf[32];
    long n = read_input(buf, 32L);
    if (n < 1L) { printf("empty\n"); return 0; }
    printf("%d\n", 100 / (buf[0] - 88));
    return 0;
}
`
	input := []byte("Xbbbbbbbbbbbbbbbb")
	red, err := Reduce(src, input, ReduceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if string(red.Input) != "X" {
		t.Fatalf("ddmin left input %q, want %q", red.Input, "X")
	}
	assertReproduces(t, red)
}

func TestReduceBudgetBound(t *testing.T) {
	const budget = 7
	red, err := Reduce(reduceCases[0].src, nil, ReduceOptions{MaxSuiteRuns: budget})
	if err != nil {
		t.Fatal(err)
	}
	if red.SuiteRuns > budget {
		t.Fatalf("spent %d suite runs, budget %d", red.SuiteRuns, budget)
	}
	// Even a starved reduction must hand back a valid reproducer.
	assertReproduces(t, red)
}

func TestReduceRejectsStableFinding(t *testing.T) {
	if _, err := Reduce(stableSrc, nil, ReduceOptions{}); err != ErrNoDivergence {
		t.Fatalf("err = %v, want ErrNoDivergence", err)
	}
}

func TestReduceRejectsBrokenSource(t *testing.T) {
	if _, err := Reduce("int main( {", nil, ReduceOptions{}); err == nil {
		t.Fatal("expected a parse error")
	}
}

// TestReduceDeterministicAcrossParallelism pins that the reduction
// result — source, input, fingerprint, and even the budget spent — is
// identical whether candidate suites compile one lowering at a time or
// four at once. Lowerings are independent and positional, so the
// compile fan-out must only change wall-clock.
func TestReduceDeterministicAcrossParallelism(t *testing.T) {
	tc := reduceCases[1]
	seq, err := Reduce(tc.src, tc.input, ReduceOptions{Suite: core.Options{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Reduce(tc.src, tc.input, ReduceOptions{Suite: core.Options{Parallelism: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Source != par.Source || string(seq.Input) != string(par.Input) {
		t.Fatalf("parallelism changed the reduction:\nseq:\n%s\npar:\n%s", seq.Source, par.Source)
	}
	if !seq.Fingerprint.Equal(par.Fingerprint) || seq.SuiteRuns != par.SuiteRuns {
		t.Fatalf("parallelism changed fingerprint or cost: %d vs %d runs", seq.SuiteRuns, par.SuiteRuns)
	}
}
