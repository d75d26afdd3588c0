// Package bench contains the experiment drivers that regenerate every
// table and figure of the paper's evaluation (§4): Table 2 (suite
// overview), Table 3 (detection/false-positive rates on the Juliet
// suite), Figure 1 (compiler-implementation subsets on Juliet), Table
// 4 (target projects), Table 5 (real-world bugs by root cause), Table
// 6 (sanitizer overlap), Figure 2 (subsets on the real-world bugs),
// and the §5 overhead measurements.
package bench

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"compdiff/internal/analyzer"
	"compdiff/internal/compiler"
	"compdiff/internal/core"
	"compdiff/internal/juliet"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
	"compdiff/internal/sanitizer"
)

// Group labels, ordered as in Table 3.
var table3Groups = []struct {
	Label string
	Group analyzer.Category
}{
	{"Memory error", analyzer.MemoryError},
	{"UB for input to API", analyzer.APIMisuse},
	{"Bad struct. pointer", analyzer.BadStructPtr},
	{"Bad function call", analyzer.BadCall},
	{"UB", analyzer.GeneralUB},
	{"Integer error", analyzer.IntegerError},
	{"Divide by zero", analyzer.DivByZero},
	{"Null pointer deref.", analyzer.NullDeref},
	{"Uninitialized memory", analyzer.UninitMemory},
	{"UB of pointer Sub.", analyzer.PtrSubtraction},
}

// ToolStats accumulates a tool's results on one group.
type ToolStats struct {
	Detected int // bad variants reported (true positives)
	FalsePos int // good variants reported (false alarms)
}

// DetectRate is TP / total bugs.
func (s ToolStats) DetectRate(total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(s.Detected) / float64(total)
}

// FPRate is the paper's definition: false alarms out of all reports.
func (s ToolStats) FPRate() float64 {
	if s.Detected+s.FalsePos == 0 {
		return 0
	}
	return float64(s.FalsePos) / float64(s.Detected+s.FalsePos)
}

// GroupResult is one Table 3 row.
type GroupResult struct {
	Label string
	Group analyzer.Category
	Total int

	Static   map[string]*ToolStats // coverity, cppcheck, infer
	San      map[sanitizer.Tool]*ToolStats
	SanTotal int // bugs caught by at least one sanitizer
	CompDiff int
	Unique   int // CompDiff-only (vs. the sanitizers), the last column
}

// Table3 is the full detection-rate comparison.
type Table3 struct {
	Groups []*GroupResult

	// Matrix feeds the Figure 1 subset analysis: one row per
	// CompDiff-detected bug with each implementation's output hash.
	Matrix *core.BugMatrix

	// TotalUnique across groups (the abstract's 1,409 analog).
	TotalUnique int
}

// caseResult is the per-case evaluation outcome.
type caseResult struct {
	c          juliet.Case
	compDiff   bool
	hashes     []uint64
	sanHit     map[sanitizer.Tool]bool
	staticBad  map[string]bool
	staticGood map[string]bool
}

// ComputeTable3 evaluates every tool on the suite.
func ComputeTable3(suite *juliet.Suite, cfgs []compiler.Config) (*Table3, error) {
	if len(cfgs) == 0 {
		cfgs = compiler.DefaultSet()
	}
	results := make([]caseResult, len(suite.Cases))
	var firstErr error
	var errMu sync.Mutex

	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				res, err := evaluateCase(suite.Cases[i], cfgs)
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("%s: %w", suite.Cases[i].Name, err)
					}
					errMu.Unlock()
					continue
				}
				results[i] = res
			}
		}()
	}
	for i := range suite.Cases {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	t3 := &Table3{Matrix: &core.BugMatrix{}}
	for _, cfg := range cfgs {
		t3.Matrix.ImplNames = append(t3.Matrix.ImplNames, cfg.Name())
	}
	byGroup := map[analyzer.Category]*GroupResult{}
	for _, g := range table3Groups {
		gr := &GroupResult{
			Label:  g.Label,
			Group:  g.Group,
			Static: map[string]*ToolStats{},
			San:    map[sanitizer.Tool]*ToolStats{},
		}
		for _, tool := range analyzer.AllTools() {
			gr.Static[tool.Name()] = &ToolStats{}
		}
		for _, tool := range sanitizer.AllTools() {
			gr.San[tool] = &ToolStats{}
		}
		byGroup[g.Group] = gr
		t3.Groups = append(t3.Groups, gr)
	}

	for _, res := range results {
		gr := byGroup[res.c.Group]
		if gr == nil {
			continue
		}
		gr.Total++
		anySan := false
		for tool, hit := range res.sanHit {
			if hit {
				gr.San[tool].Detected++
				anySan = true
			}
		}
		if anySan {
			gr.SanTotal++
		}
		if res.compDiff {
			gr.CompDiff++
			if !anySan {
				gr.Unique++
			}
			t3.Matrix.Rows = append(t3.Matrix.Rows, res.hashes)
		}
		for name, hit := range res.staticBad {
			if hit {
				gr.Static[name].Detected++
			}
		}
		for name, hit := range res.staticGood {
			if hit {
				gr.Static[name].FalsePos++
			}
		}
	}
	for _, gr := range t3.Groups {
		t3.TotalUnique += gr.Unique
	}
	return t3, nil
}

func evaluateCase(c juliet.Case, cfgs []compiler.Config) (caseResult, error) {
	res := caseResult{
		c:          c,
		sanHit:     map[sanitizer.Tool]bool{},
		staticBad:  map[string]bool{},
		staticGood: map[string]bool{},
	}

	badProg, err := parser.Parse(c.Bad)
	if err != nil {
		return res, err
	}
	badInfo, err := sema.Check(badProg)
	if err != nil {
		return res, err
	}
	goodProg, err := parser.Parse(c.Good)
	if err != nil {
		return res, err
	}
	goodInfo, err := sema.Check(goodProg)
	if err != nil {
		return res, err
	}

	// CompDiff on the bad variant.
	suite, err := core.Build(badInfo, cfgs, core.Options{})
	if err != nil {
		return res, err
	}
	o := suite.Run(c.Input)
	res.compDiff = o.Diverged
	res.hashes = o.Hashes

	// Sanitizers on the bad variant. Only an explicit sanitizer report
	// counts: a plain crash is visible to any tool (and to none
	// specifically), which is how the paper's X cells read.
	for _, tool := range sanitizer.AllTools() {
		r, err := sanitizer.NewRunner(badInfo, tool)
		if err != nil {
			return res, err
		}
		_, rep := r.Run(c.Input)
		res.sanHit[tool] = rep != nil
	}

	// Static tools on both variants; a finding counts only in the
	// case's own category (the paper evaluates per-CWE checkers).
	for _, tool := range analyzer.AllTools() {
		for _, f := range tool.Analyze(badInfo) {
			if f.Category == c.Group {
				res.staticBad[tool.Name()] = true
			}
		}
		for _, f := range tool.Analyze(goodInfo) {
			if f.Category == c.Group {
				res.staticGood[tool.Name()] = true
			}
		}
	}
	return res, nil
}

// FormatTable3 renders the table like the paper's layout.
func FormatTable3(t3 *Table3) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %6s | %-28s | %-22s | %9s %9s %7s\n",
		"Group", "#Tests", "Static (detect%/FP%)", "Sanitizers (detect%)", "SanTotal", "CompDiff", "Unique")
	staticNames := []string{"coverity", "cppcheck", "infer"}
	for _, gr := range t3.Groups {
		var st []string
		for _, name := range staticNames {
			s := gr.Static[name]
			st = append(st, fmt.Sprintf("%3.0f/%2.0f", 100*s.DetectRate(gr.Total), 100*s.FPRate()))
		}
		var sn []string
		for _, tool := range sanitizer.AllTools() {
			sn = append(sn, fmt.Sprintf("%3.0f", 100*gr.San[tool].DetectRate(gr.Total)))
		}
		fmt.Fprintf(&b, "%-22s %6d | %-28s | %-22s | %8.0f%% %8.0f%% %7d\n",
			gr.Label, gr.Total,
			strings.Join(st, " "),
			strings.Join(sn, " "),
			100*float64(gr.SanTotal)/float64(max(gr.Total, 1)),
			100*float64(gr.CompDiff)/float64(max(gr.Total, 1)),
			gr.Unique)
	}
	fmt.Fprintf(&b, "total CompDiff-unique bugs vs sanitizers: %d\n", t3.TotalUnique)
	return b.String()
}

// FormatTable2 renders the suite overview.
func FormatTable2() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-42s %8s %8s\n", "CWE-ID", "Description", "#Paper", "#Here")
	paper, here := 0, 0
	rows := append([]juliet.CWEInfo(nil), juliet.Catalog...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
	for _, info := range rows {
		fmt.Fprintf(&b, "%-10s %-42s %8d %8d\n", info.ID, info.Description, info.PaperCount, info.Count)
		paper += info.PaperCount
		here += info.Count
	}
	fmt.Fprintf(&b, "%-10s %-42s %8d %8d\n", "Total", "", paper, here)
	return b.String()
}
