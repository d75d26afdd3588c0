package bench

import (
	"fmt"
	"strings"
	"time"

	"compdiff/internal/compiler"
	"compdiff/internal/core"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
	"compdiff/internal/sanitizer"
	"compdiff/internal/targets"
	"compdiff/internal/vm"
)

// RealWorld holds everything §4.3 reports: per-bug CompDiff outcomes
// (Table 5), sanitizer overlap (Table 6), and the per-implementation
// output hashes behind Figure 2.
type RealWorld struct {
	Targets []*targets.Target

	// Detected[bugID] = CompDiff saw the divergence on the trigger.
	Detected map[string]bool

	// SanCaught[bugID] = some sanitizer reported on the trigger.
	SanCaught map[string]targets.SanTool

	Matrix *core.BugMatrix
	BugIDs []string // row order of Matrix
}

// ComputeRealWorld evaluates every planted bug under the given
// implementations.
func ComputeRealWorld(cfgs []compiler.Config) (*RealWorld, error) {
	if len(cfgs) == 0 {
		cfgs = compiler.DefaultSet()
	}
	rw := &RealWorld{
		Targets:   targets.All(),
		Detected:  map[string]bool{},
		SanCaught: map[string]targets.SanTool{},
		Matrix:    &core.BugMatrix{},
	}
	for _, cfg := range cfgs {
		rw.Matrix.ImplNames = append(rw.Matrix.ImplNames, cfg.Name())
	}
	for _, tg := range rw.Targets {
		prog, err := parser.Parse(tg.Src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", tg.Name, err)
		}
		info, err := sema.Check(prog)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", tg.Name, err)
		}
		opts := core.Options{}
		if tg.NeedsNormalizer {
			opts.Normalizer = core.DefaultNormalizer()
		}
		suite, err := core.Build(info, cfgs, opts)
		if err != nil {
			return nil, err
		}
		runners := map[sanitizer.Tool]*sanitizer.Runner{}
		for _, tool := range sanitizer.AllTools() {
			r, err := sanitizer.NewRunner(info, tool)
			if err != nil {
				return nil, err
			}
			runners[tool] = r
		}
		for _, b := range tg.Bugs {
			o := suite.Run(b.Trigger)
			rw.Detected[b.ID] = o.Diverged
			if o.Diverged {
				rw.Matrix.Rows = append(rw.Matrix.Rows, o.Hashes)
				rw.BugIDs = append(rw.BugIDs, b.ID)
			}
			for tool, r := range runners {
				if _, rep := r.Run(b.Trigger); rep != nil {
					switch tool {
					case sanitizer.ASan:
						rw.SanCaught[b.ID] = targets.ByASan
					case sanitizer.UBSan:
						rw.SanCaught[b.ID] = targets.ByUBSan
					case sanitizer.MSan:
						rw.SanCaught[b.ID] = targets.ByMSan
					}
				}
			}
		}
	}
	return rw, nil
}

// FormatTable4 renders the target-project overview.
func FormatTable4(ts []*targets.Target) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-16s %-10s %10s\n", "Target", "Input type", "Version", "Size(KLoC)")
	for _, t := range ts {
		fmt.Fprintf(&b, "%-14s %-16s %-10s %10d\n", t.Name, t.InputType, t.Version, t.PaperKLoC)
	}
	return b.String()
}

// FormatTable5 renders bugs by root cause with report outcomes.
func FormatTable5(ts []*targets.Target, rw *RealWorld) string {
	t5 := targets.ComputeTable5(ts)
	cats := []targets.Category{
		targets.EvalOrder, targets.UninitMem, targets.IntError,
		targets.MemError, targets.PointerCmp, targets.Line, targets.Misc,
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s", "")
	for _, c := range cats {
		fmt.Fprintf(&b, " %10s", c)
	}
	fmt.Fprintf(&b, " %7s\n", "Total")
	row := func(name string, m map[targets.Category]int) {
		fmt.Fprintf(&b, "%-10s", name)
		total := 0
		for _, c := range cats {
			fmt.Fprintf(&b, " %10d", m[c])
			total += m[c]
		}
		fmt.Fprintf(&b, " %7d\n", total)
	}
	row("Reported", t5.Reported)
	row("Confirmed", t5.Confirmed)
	row("Fixed", t5.Fixed)
	if rw != nil {
		detected := map[targets.Category]int{}
		for _, tg := range ts {
			for _, bug := range tg.Bugs {
				if rw.Detected[bug.ID] {
					detected[bug.Cat]++
				}
			}
		}
		row("Detected", detected)
	}
	return b.String()
}

// Table6 aggregates sanitizer overlap on the detected bugs.
type Table6 struct {
	MemByASan      int
	MemTotal       int
	IntByUBSan     int
	IntTotal       int
	UninitByMSan   int
	UninitTotal    int
	RemainingTotal int
	CaughtTotal    int
	AllTotal       int
}

// ComputeTable6 tallies which CompDiff findings sanitizers also see.
func ComputeTable6(rw *RealWorld) *Table6 {
	t6 := &Table6{}
	for _, tg := range rw.Targets {
		for _, b := range tg.Bugs {
			t6.AllTotal++
			caught := rw.SanCaught[b.ID] != targets.NoSan
			if caught {
				t6.CaughtTotal++
			}
			switch b.Cat {
			case targets.MemError:
				t6.MemTotal++
				if rw.SanCaught[b.ID] == targets.ByASan {
					t6.MemByASan++
				}
			case targets.IntError:
				t6.IntTotal++
				if rw.SanCaught[b.ID] == targets.ByUBSan {
					t6.IntByUBSan++
				}
			case targets.UninitMem:
				t6.UninitTotal++
				if rw.SanCaught[b.ID] == targets.ByMSan {
					t6.UninitByMSan++
				}
			default:
				if !caught {
					t6.RemainingTotal++
				}
			}
		}
	}
	return t6
}

// FormatTable6 renders the overlap table.
func FormatTable6(t6 *Table6) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %6s %6s\n", "CompDiff bugs", "bySan", "total")
	fmt.Fprintf(&b, "%-16s %6d %6d   (ASan)\n", "MemError", t6.MemByASan, t6.MemTotal)
	fmt.Fprintf(&b, "%-16s %6d %6d   (UBSan)\n", "IntError", t6.IntByUBSan, t6.IntTotal)
	fmt.Fprintf(&b, "%-16s %6d %6d   (MSan)\n", "UninitMem", t6.UninitByMSan, t6.UninitTotal)
	fmt.Fprintf(&b, "%-16s %6d %6d\n", "Remaining bugs", 0, t6.RemainingTotal)
	fmt.Fprintf(&b, "%-16s %6d %6d\n", "Total", t6.CaughtTotal, t6.AllTotal)
	fmt.Fprintf(&b, "unique to CompDiff: %d of %d\n", t6.AllTotal-t6.CaughtTotal, t6.AllTotal)
	return b.String()
}

// Overhead quantifies §5's run-time cost trade-off: executing an input
// on k CompDiff binaries costs ~k× one execution; the recommended
// 2-implementation subset cuts that to ~2× while keeping most bugs.
type Overhead struct {
	BaselineNs  int64 // one binary
	FullNs      int64 // all ten
	PairNs      int64 // {gcc -Os, clang -O0}
	PairBugs    int   // bugs the pair still detects
	FullBugs    int
	PairConfigs []string
}

// ComputeOverhead measures wall-clock per-input cost on the target
// corpus and the pair's detection count from the full matrix.
func ComputeOverhead(rw *RealWorld) (*Overhead, error) {
	ov := &Overhead{FullBugs: len(rw.Matrix.Rows)}
	pair := compiler.RecommendedPair()
	for _, cfg := range pair {
		ov.PairConfigs = append(ov.PairConfigs, cfg.Name())
	}
	pairIdx := []int{}
	for _, cfg := range pair {
		for i, name := range rw.Matrix.ImplNames {
			if name == cfg.Name() {
				pairIdx = append(pairIdx, i)
			}
		}
	}
	if len(pairIdx) == 2 {
		ov.PairBugs = rw.Matrix.DetectedBy(pairIdx)
	}

	// Timing: run every target seed through 1, 2, and 10 binaries.
	time1, err := timeConfigs([]compiler.Config{{Family: compiler.Clang, Opt: compiler.O2}})
	if err != nil {
		return nil, err
	}
	time2, err := timeConfigs(pair)
	if err != nil {
		return nil, err
	}
	time10, err := timeConfigs(compiler.DefaultSet())
	if err != nil {
		return nil, err
	}
	ov.BaselineNs, ov.PairNs, ov.FullNs = time1, time2, time10
	return ov, nil
}

func timeConfigs(cfgs []compiler.Config) (int64, error) {
	var total time.Duration
	runs := 0
	for _, tg := range targets.All() {
		prog, err := parser.Parse(tg.Src)
		if err != nil {
			return 0, err
		}
		info, err := sema.Check(prog)
		if err != nil {
			return 0, err
		}
		var machines []*vm.Machine
		for _, cfg := range cfgs {
			bin, err := compiler.Compile(info, cfg)
			if err != nil {
				return 0, err
			}
			machines = append(machines, vm.New(bin, vm.Options{}))
		}
		// Warm up (fork-server load), then time several passes.
		for _, seed := range tg.Seeds {
			for _, m := range machines {
				m.Run(seed)
			}
		}
		const passes = 20
		start := time.Now()
		for p := 0; p < passes; p++ {
			for _, seed := range tg.Seeds {
				for _, m := range machines {
					m.Run(seed)
				}
			}
		}
		total += time.Since(start)
		runs += passes * len(tg.Seeds)
	}
	if runs == 0 {
		return 0, nil
	}
	return int64(total) / int64(runs), nil
}

// FormatOverhead renders the §5 discussion numbers.
func (ov *Overhead) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "per-input cost: 1 impl %s, pair %s (%.1fx), full ten %s (%.1fx)\n",
		time.Duration(ov.BaselineNs), time.Duration(ov.PairNs),
		float64(ov.PairNs)/float64(max(ov.BaselineNs, 1)),
		time.Duration(ov.FullNs),
		float64(ov.FullNs)/float64(max(ov.BaselineNs, 1)))
	fmt.Fprintf(&b, "%v detects %d of %d real-world bugs\n", ov.PairConfigs, ov.PairBugs, ov.FullBugs)
	return b.String()
}
