package progen

import (
	"testing"

	"compdiff/internal/compiler"
	"compdiff/internal/core"
	"compdiff/internal/minic/ast"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
	"compdiff/internal/sanitizer"
	"compdiff/internal/vm"
)

func astPrint(p *ast.Program) string { return ast.Print(p) }

func TestGeneratedProgramsCompile(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		p := Generate(seed)
		prog, err := parser.Parse(p.Src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v\n%s", seed, err, p.Src)
		}
		if _, err := sema.Check(prog); err != nil {
			t.Fatalf("seed %d: check: %v\n%s", seed, err, p.Src)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(42)
	b := Generate(42)
	if a.Src != b.Src {
		t.Fatal("same seed produced different programs")
	}
	if Generate(43).Src == a.Src {
		t.Fatal("different seeds produced identical programs")
	}
}

// The repository's central soundness property (paper Finding 5): a
// program without UB behaves identically under every compiler
// implementation, on every input. This is what makes output
// divergence a *sound* oracle for unstable code.
func TestNoUBImpliesNoDivergence(t *testing.T) {
	nSeeds := int64(60)
	if testing.Short() {
		nSeeds = 15
	}
	inputs := [][]byte{
		nil,
		{0},
		[]byte("abc"),
		{0xff, 0x80, 0x01, 0x7f, 0x00, 0x55, 0xaa, 0x0f},
		[]byte("a longer input with plenty of bytes to chew on.."),
	}
	cfgs := compiler.DefaultSet()
	for seed := int64(0); seed < nSeeds; seed++ {
		p := Generate(seed)
		info, err := core.CheckSource(p.Src)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, p.Src)
		}
		suite, err := core.Build(info, cfgs, core.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, p.Src)
		}
		for _, in := range inputs {
			o := suite.Run(in)
			if o.Diverged {
				groups := o.Groups()
				detail := ""
				for h, idxs := range groups {
					_ = h
					detail += "--- " + suite.Names()[idxs[0]] + ":\n" +
						string(o.Results[idxs[0]].Encode()) + "\n"
				}
				t.Fatalf("seed %d input %q: defined program diverged\n%s\nsource:\n%s",
					seed, in, detail, p.Src)
			}
			if o.Results[0].Exit != vm.Exited {
				t.Fatalf("seed %d input %q: generated program crashed: %s\n%s",
					seed, in, o.Results[0].Exit, p.Src)
			}
		}
	}
}

// Printing a generated program and reparsing it must yield a program
// that prints identically (the AST printer is a fixed point after one
// round trip) — checked across the generator's whole output space.
func TestPrintParseRoundTripOnGenerated(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		p := Generate(seed)
		prog1 := parser.MustParse(p.Src)
		out1 := astPrint(prog1)
		prog2, err := parser.Parse(out1)
		if err != nil {
			t.Fatalf("seed %d: reparse: %v", seed, err)
		}
		if out2 := astPrint(prog2); out1 != out2 {
			t.Fatalf("seed %d: print not a fixed point", seed)
		}
	}
}

// Sanitizers must also stay silent on defined programs.
func TestNoUBImpliesNoSanitizerReport(t *testing.T) {
	nSeeds := int64(25)
	if testing.Short() {
		nSeeds = 8
	}
	for seed := int64(0); seed < nSeeds; seed++ {
		p := Generate(seed)
		info := sema.MustCheck(parser.MustParse(p.Src))
		for _, tool := range sanitizer.AllTools() {
			r, err := sanitizer.NewRunner(info, tool)
			if err != nil {
				t.Fatal(err)
			}
			_, rep := r.Run([]byte{1, 2, 3})
			if rep != nil {
				t.Fatalf("seed %d: %s false positive: %s\n%s", seed, tool, rep, p.Src)
			}
		}
	}
}
