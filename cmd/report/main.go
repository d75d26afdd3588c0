// Command report regenerates the paper's evaluation tables and
// figures (§4): Tables 2-6 and Figures 1-2, plus the §5 overhead
// numbers. Absolute values reflect this repository's 1:10-scale
// simulator substrate; the shapes are the reproduction target (see
// EXPERIMENTS.md for the paper-vs-measured record).
//
// Usage:
//
//	report -all
//	report -table3 -figure1 [-scale 4]
//	report -triage [-triage-target readelf] [-triage-execs 5000]
//
// -triage runs a short fuzzing campaign against one built-in target
// and prints the bucketed triage summary: one row per divergence
// fingerprint with its hit count, merged signature count, and
// divergence stage.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"strings"

	"compdiff/internal/bench"
	"compdiff/internal/compiler"
	"compdiff/internal/difffuzz"
	"compdiff/internal/juliet"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
	"compdiff/internal/targets"
	"compdiff/internal/triage"
	"compdiff/internal/vm"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("report: ")
	all := flag.Bool("all", false, "produce everything")
	t2 := flag.Bool("table2", false, "Table 2: selected CWE overview")
	t3 := flag.Bool("table3", false, "Table 3: detection/FP rates on the Juliet suite")
	f1 := flag.Bool("figure1", false, "Figure 1: implementation subsets on the Juliet suite")
	t4 := flag.Bool("table4", false, "Table 4: target projects")
	t5 := flag.Bool("table5", false, "Table 5: real-world bugs by root cause")
	t6 := flag.Bool("table6", false, "Table 6: sanitizer overlap")
	f2 := flag.Bool("figure2", false, "Figure 2: implementation subsets on the real-world bugs")
	ov := flag.Bool("overhead", false, "section 5 overhead measurements")
	tr := flag.Bool("triage", false, "bucketed triage summary from a short campaign")
	trTarget := flag.String("triage-target", "readelf", "built-in target for -triage")
	trExecs := flag.Int64("triage-execs", 5000, "campaign budget for -triage")
	co := flag.Bool("compile-oracle", false, "compile-stage oracle demo: the three finding classes")
	op := flag.Bool("opcode-pairs", false, "dynamic fallthrough opcode-pair histogram over the built-in corpus")
	opTop := flag.Int("opcode-pairs-top", 20, "rows to print for -opcode-pairs")
	scale := flag.Int("scale", 1, "divide Juliet category sizes by N (speed knob)")
	flag.Parse()

	if *all {
		*t2, *t3, *f1, *t4, *t5, *t6, *f2, *ov, *tr, *co = true, true, true, true, true, true, true, true, true, true
	}
	if !(*t2 || *t3 || *f1 || *t4 || *t5 || *t6 || *f2 || *ov || *tr || *co || *op) {
		flag.Usage()
		return
	}

	if *t2 {
		fmt.Println("==== Table 2: selected CWEs ====")
		fmt.Println(bench.FormatTable2())
	}

	var table3 *bench.Table3
	if *t3 || *f1 {
		suite := juliet.GenerateScaled(*scale)
		fmt.Printf("(evaluating %d Juliet cases ...)\n", len(suite.Cases))
		var err error
		table3, err = bench.ComputeTable3(suite, nil)
		if err != nil {
			log.Fatal(err)
		}
	}
	if *t3 {
		fmt.Println("==== Table 3: detection and false-positive rates ====")
		fmt.Println(bench.FormatTable3(table3))
	}
	if *f1 {
		fmt.Println("==== Figure 1: implementation subsets (Juliet) ====")
		fig := bench.ComputeFigure1(table3.Matrix)
		fmt.Println(fig.Format(fmt.Sprintf("bugs detected per subset (of %d total)", len(table3.Matrix.Rows))))
	}

	if *t4 {
		fmt.Println("==== Table 4: target projects ====")
		fmt.Println(bench.FormatTable4(targets.All()))
	}

	var rw *bench.RealWorld
	if *t5 || *t6 || *f2 || *ov {
		var err error
		rw, err = bench.ComputeRealWorld(nil)
		if err != nil {
			log.Fatal(err)
		}
	}
	if *t5 {
		fmt.Println("==== Table 5: real-world bugs by root cause ====")
		fmt.Println(bench.FormatTable5(rw.Targets, rw))
	}
	if *t6 {
		fmt.Println("==== Table 6: sanitizer overlap ====")
		fmt.Println(bench.FormatTable6(bench.ComputeTable6(rw)))
	}
	if *f2 {
		fmt.Println("==== Figure 2: implementation subsets (real-world bugs) ====")
		fig := bench.ComputeFigure1(rw.Matrix)
		fmt.Println(fig.Format(fmt.Sprintf("bugs detected per subset (of %d total)", len(rw.Matrix.Rows))))
	}
	if *ov {
		fmt.Println("==== Section 5: overhead ====")
		o, err := bench.ComputeOverhead(rw)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(o.Format())
	}

	if *tr {
		fmt.Printf("==== Triage: bucketed findings (%s, %d execs) ====\n", *trTarget, *trExecs)
		fmt.Println(triageSummary(*trTarget, *trExecs))
	}

	if *co {
		fmt.Println("==== Compile-stage oracle: the three finding classes ====")
		fmt.Println(compileOracleSummary())
	}

	if *op {
		fmt.Println("==== Opcode-pair histogram (fallthrough pairs, built-in corpus) ====")
		fmt.Println(opcodePairSummary(*opTop))
	}
}

// opcodePairSummary runs every built-in target's seeds through the
// default implementation set under the pair profiler and renders the
// most frequent fallthrough opcode pairs — the data that justifies
// the fast loop's superinstruction set (`go run ./cmd/report
// -opcode-pairs` prints it).
func opcodePairSummary(top int) string {
	var prof vm.PairProfile
	cfgs := compiler.DefaultSet()
	for _, tg := range targets.All() {
		info := sema.MustCheck(parser.MustParse(tg.Src))
		for _, cfg := range cfgs {
			res := compiler.CompileGuarded(info, cfg)
			if res.Err != nil {
				continue
			}
			m := vm.New(res.Prog, vm.Options{})
			for _, seed := range tg.Seeds {
				m.ProfilePairs(seed, &prof)
			}
		}
	}
	pairs := prof.Pairs()
	var total int64
	for _, p := range pairs {
		total += p.Count
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d instructions executed, %d fallthrough pairs (%d distinct)\n",
		prof.Steps(), total, len(pairs))
	fmt.Fprintf(&b, "%-24s %12s %7s\n", "pair", "count", "share")
	if top > len(pairs) {
		top = len(pairs)
	}
	for _, p := range pairs[:top] {
		fmt.Fprintf(&b, "%-24s %12d %6.2f%%\n",
			p.A.String()+"+"+p.B.String(), p.Count, 100*float64(p.Count)/float64(total))
	}
	return b.String()
}

// triageSummary fuzzes one built-in target briefly and renders the
// bucketed summary table: findings deduplicated by divergence
// fingerprint rather than by raw signature.
func triageSummary(name string, execs int64) string {
	tg := targets.ByName(name)
	if tg == nil {
		log.Fatalf("unknown target %q for -triage-target", name)
	}
	p, err := difffuzz.NewPool(tg.Src, tg.Seeds, difffuzz.Options{FuzzSeed: 1, Shards: 2})
	if err != nil {
		log.Fatal(err)
	}
	st := p.Run(context.Background(), execs)
	kinds := p.BucketStore().KindCounts()
	return fmt.Sprintf("%d diverging inputs, %d signatures, %d buckets (%d runtime, %d compile-divergence, %d ice, %d diag-mismatch)\n%s",
		st.TotalDiffInputs, st.UniqueDiffs, st.UniqueBuckets,
		kinds[triage.KindRuntime], kinds[triage.KindCompileDivergence],
		kinds[triage.KindICE], kinds[triage.KindDiagMismatch],
		p.BucketStore().Table())
}

// compileOracleSummary runs the compile-stage oracle over a small
// demo corpus seeded with one program per finding class — a reject
// divergence (optimizing gcc refuses a constant division by zero the
// other implementations merely warn about), an expression deep enough
// to crash the O2+ lowerers, and a global initializer every
// implementation rejects with family-specific wording.
func compileOracleSummary() string {
	corpus := []string{
		"int main() {\n    int d = 1 / 0;\n    return d;\n}\n",
		"int main() {\n    int x = 1;\n    int y = x" + strings.Repeat("+1", 60) + ";\n    return y;\n}\n",
		"int g = 1 / 0;\nint main() {\n    return g;\n}\n",
	}
	p, err := difffuzz.NewCompilePool(corpus, difffuzz.CompilePoolOptions{})
	if err != nil {
		log.Fatal(err)
	}
	st := p.Run(context.Background())
	var b strings.Builder
	fmt.Fprintf(&b, "%d programs: %d accept/reject divergences, %d ICEs, %d diagnostic mismatches\n%s\n",
		st.Programs, st.CompileDivergences, st.ICEs, st.DiagMismatches,
		p.BucketStore().Table())
	for _, bk := range p.BucketStore().Buckets() {
		b.WriteString(bk.Report(p.ImplNames()))
		b.WriteString("\n")
	}
	return b.String()
}
