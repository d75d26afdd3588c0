package targets

import (
	"fmt"
	"testing"

	"compdiff/internal/compiler"
	"compdiff/internal/core"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
	"compdiff/internal/sanitizer"
	"compdiff/internal/vm"
)

func TestTwentyThreeTargets(t *testing.T) {
	ts := All()
	if len(ts) != 23 {
		t.Fatalf("targets = %d, want 23", len(ts))
	}
	seen := map[string]bool{}
	for _, tg := range ts {
		if seen[tg.Name] {
			t.Errorf("duplicate target %s", tg.Name)
		}
		seen[tg.Name] = true
		if tg.Version == "" || tg.PaperKLoC == 0 || tg.InputType == "" {
			t.Errorf("%s: missing Table 4 metadata", tg.Name)
		}
		if len(tg.Seeds) == 0 {
			t.Errorf("%s: no seeds", tg.Name)
		}
	}
}

func TestSixNonDeterministicTargets(t *testing.T) {
	// §4.3 RQ5: tcpdump, wireshark, MuJS, ImageMagick, grok, gpac.
	want := map[string]bool{
		"tcpdump": true, "wireshark": true, "MuJS": true,
		"ImageMagick": true, "grok": true, "gpac": true,
	}
	for _, tg := range All() {
		if tg.NonDeterministic != want[tg.Name] {
			t.Errorf("%s: NonDeterministic = %v, want %v", tg.Name, tg.NonDeterministic, want[tg.Name])
		}
	}
}

func TestTable5Distribution(t *testing.T) {
	ts := All()
	counts := CategoryCounts(ts)
	want := map[Category]int{
		EvalOrder: 2, UninitMem: 27, IntError: 8, MemError: 13,
		PointerCmp: 1, Line: 6, Misc: 21,
	}
	total := 0
	for cat, n := range want {
		if counts[cat] != n {
			t.Errorf("%s: %d bugs, want %d", cat, counts[cat], n)
		}
		total += n
	}
	if total != 78 {
		t.Fatalf("category plan sums to %d, want 78", total)
	}
	t5 := ComputeTable5(ts)
	sum := func(m map[Category]int) int {
		s := 0
		for _, v := range m {
			s += v
		}
		return s
	}
	if got := sum(t5.Reported); got != 78 {
		t.Errorf("reported = %d, want 78", got)
	}
	if got := sum(t5.Confirmed); got != 65 {
		t.Errorf("confirmed = %d, want 65", got)
	}
	if got := sum(t5.Fixed); got != 52 {
		t.Errorf("fixed = %d, want 52", got)
	}
	// Fixed bugs must be confirmed.
	for _, tg := range ts {
		for _, b := range tg.Bugs {
			if b.Fixed && !b.Confirmed {
				t.Errorf("%s: fixed but not confirmed", b.ID)
			}
		}
	}
}

func TestTable6SanPlan(t *testing.T) {
	// ASan 13 MemError, UBSan 8 IntError, MSan 21 of 27 UninitMem;
	// 36 bugs with no sanitizer coverage.
	byTool := map[SanTool]int{}
	for _, tg := range All() {
		for _, b := range tg.Bugs {
			byTool[b.San]++
			switch b.San {
			case ByASan:
				if b.Cat != MemError {
					t.Errorf("%s: ASan expectation on %s", b.ID, b.Cat)
				}
			case ByUBSan:
				if b.Cat != IntError {
					t.Errorf("%s: UBSan expectation on %s", b.ID, b.Cat)
				}
			case ByMSan:
				if b.Cat != UninitMem {
					t.Errorf("%s: MSan expectation on %s", b.ID, b.Cat)
				}
			}
		}
	}
	if byTool[ByASan] != 13 || byTool[ByUBSan] != 8 || byTool[ByMSan] != 21 {
		t.Errorf("sanitizer plan = ASan %d / UBSan %d / MSan %d, want 13/8/21",
			byTool[ByASan], byTool[ByUBSan], byTool[ByMSan])
	}
	if byTool[NoSan] != 36 {
		t.Errorf("CompDiff-only bugs = %d, want 36", byTool[NoSan])
	}
}

func buildSuite(t *testing.T, tg *Target) *core.Suite {
	t.Helper()
	opts := core.Options{}
	if tg.NeedsNormalizer {
		opts.Normalizer = core.DefaultNormalizer()
	}
	info, err := core.CheckSource(tg.Src)
	if err != nil {
		t.Fatalf("%s: %v", tg.Name, err)
	}
	s, err := core.Build(info, compiler.DefaultSet(), opts)
	if err != nil {
		t.Fatalf("%s: %v", tg.Name, err)
	}
	return s
}

// Every planted bug must be CompDiff-detectable on its trigger input:
// Table 5's premise is that CompDiff-AFL++ found all 78.
func TestEveryBugTriggersDivergence(t *testing.T) {
	for _, tg := range All() {
		suite := buildSuite(t, tg)
		for _, b := range tg.Bugs {
			o := suite.Run(b.Trigger)
			if !o.Diverged {
				enc := o.Results[0].Encode()
				t.Errorf("%s: trigger %q did not diverge; common output:\n%s",
					b.ID, b.Trigger, enc)
			}
		}
	}
}

// Benign seeds must not diverge (after RQ5 normalization where the
// target legitimately prints clock fields) — otherwise triage would
// drown in noise.
func TestSeedsAreQuiet(t *testing.T) {
	for _, tg := range All() {
		suite := buildSuite(t, tg)
		for i, seed := range tg.Seeds {
			if o := suite.Run(seed); o.Diverged {
				t.Errorf("%s: seed %d %q diverges", tg.Name, i, seed)
			}
		}
	}
}

// Table 6: the sanitizer expectations hold on the trigger inputs.
func TestSanitizerExpectations(t *testing.T) {
	toolFor := map[SanTool]sanitizer.Tool{
		ByASan: sanitizer.ASan, ByUBSan: sanitizer.UBSan, ByMSan: sanitizer.MSan,
	}
	for _, tg := range All() {
		info, err := checkedInfo(tg)
		if err != nil {
			t.Fatalf("%s: %v", tg.Name, err)
		}
		runners := map[sanitizer.Tool]*sanitizer.Runner{}
		for _, tool := range sanitizer.AllTools() {
			r, err := sanitizer.NewRunner(info, tool)
			if err != nil {
				t.Fatalf("%s: %v", tg.Name, err)
			}
			runners[tool] = r
		}
		for _, b := range tg.Bugs {
			if want, ok := toolFor[b.San]; ok {
				_, rep := runners[want].Run(b.Trigger)
				if rep == nil {
					t.Errorf("%s: %s expected to report but stayed silent", b.ID, want)
				}
			} else {
				for tool, r := range runners {
					if _, rep := r.Run(b.Trigger); rep != nil {
						t.Errorf("%s: expected CompDiff-only, but %s reported %s", b.ID, tool, rep)
					}
				}
			}
		}
	}
}

func checkedInfo(tg *Target) (*sema.Info, error) {
	prog, err := parser.Parse(tg.Src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	return sema.Check(prog)
}

// Targets must also run cleanly (no crash) on their seeds under the
// plain baseline implementation.
func TestSeedsRunCleanly(t *testing.T) {
	for _, tg := range All() {
		info, err := checkedInfo(tg)
		if err != nil {
			t.Fatalf("%s: %v", tg.Name, err)
		}
		bin, err := compiler.Compile(info, compiler.Config{Family: compiler.GCC, Opt: compiler.O0})
		if err != nil {
			t.Fatal(err)
		}
		m := vm.New(bin, vm.Options{})
		for i, seed := range tg.Seeds {
			res := m.Run(seed)
			if res.Crashed() {
				t.Errorf("%s: seed %d crashed: %s", tg.Name, i, res.Exit)
			}
		}
	}
}

func TestByName(t *testing.T) {
	if ByName("tcpdump") == nil || ByName("gpac") == nil {
		t.Fatal("lookup failed")
	}
	if ByName("nonesuch") != nil {
		t.Fatal("phantom target")
	}
}
