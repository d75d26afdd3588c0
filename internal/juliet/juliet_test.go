package juliet

import (
	"fmt"
	"testing"

	"compdiff/internal/compiler"
	"compdiff/internal/core"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
	"compdiff/internal/sanitizer"
)

func TestCatalogMatchesPaperTable2(t *testing.T) {
	if len(Catalog) != 20 {
		t.Fatalf("CWEs = %d, want 20", len(Catalog))
	}
	paperTotal := 0
	for _, info := range Catalog {
		paperTotal += info.PaperCount
	}
	if paperTotal != 18142 {
		t.Fatalf("paper total = %d, want 18142", paperTotal)
	}
}

func TestGenerateCounts(t *testing.T) {
	s := Generate()
	byCWE := s.ByCWE()
	for _, info := range Catalog {
		if got := len(byCWE[info.ID]); got != info.Count {
			t.Errorf("%s: generated %d, want %d", info.ID, got, info.Count)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := GenerateScaled(10)
	b := GenerateScaled(10)
	if len(a.Cases) != len(b.Cases) {
		t.Fatal("case counts differ")
	}
	for i := range a.Cases {
		if a.Cases[i].Bad != b.Cases[i].Bad || a.Cases[i].Good != b.Cases[i].Good {
			t.Fatalf("case %d differs between generations", i)
		}
	}
}

func TestCaseNamesUnique(t *testing.T) {
	s := GenerateScaled(4)
	seen := map[string]bool{}
	for _, c := range s.Cases {
		if seen[c.Name] {
			t.Fatalf("duplicate name %s", c.Name)
		}
		seen[c.Name] = true
	}
}

// Every generated program — bad and good — must parse and type-check.
func TestAllCasesCompile(t *testing.T) {
	s := Generate()
	for _, c := range s.Cases {
		for _, variant := range []struct {
			kind string
			src  string
		}{{"bad", c.Bad}, {"good", c.Good}} {
			prog, err := parser.Parse(variant.src)
			if err != nil {
				t.Fatalf("%s/%s parse: %v\n%s", c.Name, variant.kind, err, variant.src)
			}
			if _, err := sema.Check(prog); err != nil {
				t.Fatalf("%s/%s check: %v\n%s", c.Name, variant.kind, err, variant.src)
			}
		}
	}
}

// Soundness of the whole evaluation: good variants are UB-free, so
// they must behave identically under every compiler implementation
// (zero false positives for CompDiff, Finding 5) and raise no
// sanitizer report.
func TestGoodVariantsAreStable(t *testing.T) {
	scale := 10
	if testing.Short() {
		scale = 40
	}
	s := GenerateScaled(scale)
	cfgs := compiler.DefaultSet()
	for _, c := range s.Cases {
		suite, err := buildSource(c.Good, cfgs)
		if err != nil {
			t.Fatalf("%s/good build: %v", c.Name, err)
		}
		o := suite.Run(c.Input)
		if o.Diverged {
			groups := map[uint64][]string{}
			for i, h := range o.Hashes {
				groups[h] = append(groups[h], suite.Names()[i])
			}
			detail := ""
			for h, names := range groups {
				detail += fmt.Sprintf("  %v:\n%s\n", names, o.Results[idxOfHash(o.Hashes, h)].Encode())
			}
			t.Fatalf("%s: good variant diverged (CompDiff false positive)\n%s\nsource:\n%s",
				c.Name, detail, c.Good)
		}
	}
}

// buildSource is the front end followed by core.Build.
func buildSource(src string, cfgs []compiler.Config) (*core.Suite, error) {
	info, err := core.CheckSource(src)
	if err != nil {
		return nil, err
	}
	return core.Build(info, cfgs, core.Options{})
}

func idxOfHash(hashes []uint64, h uint64) int {
	for i, x := range hashes {
		if x == h {
			return i
		}
	}
	return 0
}

func TestGoodVariantsSanitizerClean(t *testing.T) {
	scale := 10
	if testing.Short() {
		scale = 40
	}
	s := GenerateScaled(scale)
	for _, c := range s.Cases {
		info := sema.MustCheck(parser.MustParse(c.Good))
		for _, tool := range sanitizer.AllTools() {
			r, err := sanitizer.NewRunner(info, tool)
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			res, rep := r.Run(c.Input)
			if rep != nil {
				t.Fatalf("%s/good: %s false positive: %s\nsource:\n%s", c.Name, tool, rep, c.Good)
			}
			if res.Crashed() {
				t.Fatalf("%s/good crashed under %s: %s\nsource:\n%s", c.Name, tool, res.Exit, c.Good)
			}
		}
	}
}

// Bad variants must be *reachable* flaws: each one, on its input, is
// detected by at least one tool in the evaluation (CompDiff, a
// sanitizer, or a crash) — otherwise it would be dead weight that no
// row of Table 3 could ever count.
func TestBadVariantsDetectableBySomeone(t *testing.T) {
	scale := 10
	if testing.Short() {
		scale = 40
	}
	s := GenerateScaled(scale)
	cfgs := compiler.DefaultSet()
	for _, c := range s.Cases {
		if c.Stealth {
			continue // defined-behaviour logic flaws: invisible by design
		}
		suite, err := buildSource(c.Bad, cfgs)
		if err != nil {
			t.Fatalf("%s/bad build: %v", c.Name, err)
		}
		o := suite.Run(c.Input)
		detected := o.Diverged
		if !detected {
			info := sema.MustCheck(parser.MustParse(c.Bad))
			sanRes, err := sanitizer.CheckAll(info, c.Input)
			if err != nil {
				t.Fatal(err)
			}
			for _, hit := range sanRes {
				if hit {
					detected = true
				}
			}
		}
		if !detected {
			// Static-only categories (e.g. unused missing-return) are
			// permitted: a static tool must see them instead.
			staticSeen := staticDetects(t, c)
			if !staticSeen {
				t.Errorf("%s: bad variant invisible to every tool\n%s", c.Name, c.Bad)
			}
		}
	}
}

func staticDetects(t *testing.T, c Case) bool {
	t.Helper()
	info := sema.MustCheck(parser.MustParse(c.Bad))
	for _, tool := range allStaticTools() {
		for _, f := range tool.Analyze(info) {
			if f.Category == c.Group {
				return true
			}
		}
	}
	return false
}
