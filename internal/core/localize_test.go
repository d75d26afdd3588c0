package core

import (
	"strings"
	"testing"

	"compdiff/internal/compiler"
)

func TestLocalizeOverflowGuard(t *testing.T) {
	// Listing 1 shape: the unstable guard sits on line 5 of the
	// source below; implementations that folded it continue at line 6
	// while the others return at line 5.
	src := `int check(int offset, int len) {
    if (offset < 0 || len < 0) {
        return -1;
    }
    if (offset + len < offset) { return -2; }
    return offset + len;
}
int main() {
    printf("%d\n", check(2147483647 - 100, 101));
    return 0;
}`
	s := build(t, src)
	o := s.Run(nil)
	if !o.Diverged {
		t.Fatal("expected divergence")
	}
	loc, err := s.Localize(o)
	if err != nil {
		t.Fatal(err)
	}
	if loc.TracesEqual {
		t.Fatalf("control-flow divergence expected, got %s", loc)
	}
	// The separation involves the guard on line 5: either the agreed
	// prefix ends there or one side's next line is the guard/return.
	involved := []int32{loc.Line, loc.NextA, loc.NextB}
	found := false
	for _, l := range involved {
		if l == 5 || l == 6 {
			found = true
		}
	}
	if !found {
		t.Fatalf("localization %+v does not implicate the guard (line 5)", loc)
	}
	if !strings.Contains(loc.String(), "line") {
		t.Fatalf("report: %s", loc)
	}
}

func TestLocalizeDataOnlyDivergence(t *testing.T) {
	// An uninitialized print diverges in values, not in control flow.
	src := `int main() {
    int x;
    printf("%d\n", x);
    return 0;
}`
	s := build(t, src)
	o := s.Run(nil)
	if !o.Diverged {
		t.Fatal("expected divergence")
	}
	loc, err := s.Localize(o)
	if err != nil {
		t.Fatal(err)
	}
	if !loc.TracesEqual {
		t.Fatalf("expected data-only divergence, got %+v", loc)
	}
	if !strings.Contains(loc.String(), "data-only") {
		t.Fatalf("report: %s", loc)
	}
}

func TestLocalizeCrashDivergence(t *testing.T) {
	// Dead null deref: -O0 crashes at the deref line, optimized
	// binaries sail past — a prefix-trace divergence.
	src := `int main() {
    int* p = 0;
    *p;
    printf("alive\n");
    return 0;
}`
	s := build(t, src)
	o := s.Run(nil)
	if !o.Diverged {
		t.Fatal("expected divergence")
	}
	loc, err := s.Localize(o)
	if err != nil {
		t.Fatal(err)
	}
	if loc.TracesEqual {
		t.Fatal("crash-vs-continue should differ in control flow")
	}
}

func TestLocalizeRejectsStableOutcome(t *testing.T) {
	s := build(t, `int main() { printf("hi\n"); return 0; }`)
	o := s.Run(nil)
	if o.Diverged {
		t.Fatal("stable program diverged")
	}
	if _, err := s.Localize(o); err == nil {
		t.Fatal("expected error for non-diverging outcome")
	}
}

func TestLocalizeOnSubset(t *testing.T) {
	// Works with any implementation set, including the pair.
	s, err := buildSource(`int main() {
    int x;
    int guard = 7;
    printf("%d %d\n", x, guard);
    return 0;
}`, []compiler.Config{
		{Family: compiler.GCC, Opt: compiler.Os},
		{Family: compiler.Clang, Opt: compiler.O0},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := s.Run(nil)
	if !o.Diverged {
		t.Fatal("expected divergence")
	}
	if _, err := s.Localize(o); err != nil {
		t.Fatal(err)
	}
}
