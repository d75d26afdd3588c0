package bench

import (
	"fmt"
	"strings"

	"compdiff/internal/core"
)

// Figure1 is the subset analysis of §4.2: for every subset of the
// compiler implementations (sizes 2..k), how many of the detected bugs
// would that subset still detect. The paper's observations, which the
// formatter surfaces: detection grows with subset size; cross-family
// unoptimizing+aggressive pairs are the best two-implementation
// choices; same-family adjacent levels are the worst.
type Figure1 struct {
	Stats []core.SubsetStat
	Names []string
}

// ComputeFigure1 sweeps subsets over a bug matrix (from Table 3 for
// Figure 1, from the real-world bugs for Figure 2).
func ComputeFigure1(matrix *core.BugMatrix) *Figure1 {
	return &Figure1{Stats: matrix.SubsetSweep(), Names: matrix.ImplNames}
}

// BestPair returns the best-performing two-implementation subset and
// its detection count.
func (f *Figure1) BestPair() ([]string, int) {
	for _, st := range f.Stats {
		if st.Size == 2 {
			return f.subsetNames(st.Best), st.Max
		}
	}
	return nil, 0
}

// WorstPair returns the worst-performing two-implementation subset.
func (f *Figure1) WorstPair() ([]string, int) {
	for _, st := range f.Stats {
		if st.Size == 2 {
			return f.subsetNames(st.Worst), st.Min
		}
	}
	return nil, 0
}

func (f *Figure1) subsetNames(idx []int) []string {
	out := make([]string, len(idx))
	for i, j := range idx {
		out[i] = f.Names[j]
	}
	return out
}

// Format renders the figure as a table plus the annotations the paper
// draws on the plot (best/worst subsets per size).
func (f *Figure1) Format(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%4s %8s %6s %8s %8s %8s %6s   %s\n",
		"size", "#subsets", "min", "q1", "median", "q3", "max", "best / worst subsets")
	for _, st := range f.Stats {
		fmt.Fprintf(&b, "%4d %8d %6d %8.1f %8.1f %8.1f %6d   best=%v worst=%v\n",
			st.Size, st.Subsets, st.Min, st.Q1, st.Median, st.Q3, st.Max,
			f.subsetNames(st.Best), f.subsetNames(st.Worst))
	}
	best, bn := f.BestPair()
	worst, wn := f.WorstPair()
	full := f.Stats[len(f.Stats)-1].Max
	fmt.Fprintf(&b, "best pair  %v detects %d (%.0f%% of the full set's %d)\n",
		best, bn, 100*float64(bn)/float64(max(full, 1)), full)
	fmt.Fprintf(&b, "worst pair %v detects %d\n", worst, wn)
	return b.String()
}
