package core_test

// The differential self-test for the fuzzing fast path: RunFast must
// reach the same verdict, checksums and (on divergence) results as the
// materializing Run, over the golden corpus and a progen-generated
// sweep, over suites built sequentially and with the k-way compile
// fan-out. The fast path
// is only trusted because this layer holds it to the semantics the
// oracle was validated against — the same medicine the vm's
// selftest_test.go applies to the fast loop. scripts/check.sh runs
// this under -race so the warm machine-set reuse is also proven free
// of data races.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compdiff/internal/compiler"
	"compdiff/internal/core"
	"compdiff/internal/progen"
	"compdiff/internal/vm"
)

// selfTestInputs mirrors the vm self-test crasher list: empty, short,
// divergence triggers, and garbage, so the sequence mixes clean runs,
// faults, and diverging outcomes.
func selfTestInputs() [][]byte {
	return [][]byte{
		nil,
		{},
		[]byte("u"),
		[]byte("s\x21"),
		[]byte("s\x02"),
		{'o', 0x9b, 0xff, 0xff, 0x7f, 0x65, 0, 0, 0},
		{'o', 0xff, 0xff, 0xff, 0x7f, 0xff, 0xff, 0xff, 0x7f},
		[]byte("plain input"),
		bytes.Repeat([]byte{0xff}, 16),
		bytes.Repeat([]byte{0x00}, 16),
	}
}

// selfTestSources is the golden corpus (runtime programs only)
// plus a generated sweep: three progen programs, which are
// well-defined by construction and exercise compiler-config-dependent
// lowering without divergence, keeping the non-diverged comparison
// path honest too.
func selfTestSources(t *testing.T) map[string]string {
	t.Helper()
	srcs := map[string]string{}
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*.mc"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("golden corpus unavailable: %v", err)
	}
	for _, p := range paths {
		if strings.HasPrefix(filepath.Base(p), "compile_") {
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs[strings.TrimSuffix(filepath.Base(p), ".mc")] = string(data)
	}
	for seed := int64(1); seed <= 3; seed++ {
		srcs[progenName(seed)] = progen.Generate(seed).Src
	}
	return srcs
}

func progenName(seed int64) string {
	return "progen_" + string('0'+byte(seed))
}

// assertSameOutcome compares every observable Outcome field. want
// comes from the materializing Run, got from RunFast — which
// materializes only on divergence, so full Result comparison
// applies exactly there.
func assertSameOutcome(t *testing.T, input []byte, want, got *core.Outcome) {
	t.Helper()
	if want.Diverged != got.Diverged {
		t.Fatalf("input %q: diverged Run=%t RunFast=%t", input, want.Diverged, got.Diverged)
	}
	if want.TimeoutSuspect != got.TimeoutSuspect {
		t.Fatalf("input %q: timeout-suspect Run=%t RunFast=%t", input, want.TimeoutSuspect, got.TimeoutSuspect)
	}
	if len(want.Hashes) != len(got.Hashes) {
		t.Fatalf("input %q: %d hashes from Run, %d from RunFast", input, len(want.Hashes), len(got.Hashes))
	}
	for i := range want.Hashes {
		if want.Hashes[i] != got.Hashes[i] {
			t.Fatalf("input %q: hash[%d] Run=%016x RunFast=%016x", input, i, want.Hashes[i], got.Hashes[i])
		}
	}
	if !got.Diverged {
		// Signature needs materialized Results, which the fast path
		// produces only on divergence; for agreeing outcomes the hash
		// comparison above is the whole story.
		return
	}
	if ws, gs := want.Signature(), got.Signature(); ws != gs {
		t.Fatalf("input %q: signature Run=%016x RunFast=%016x", input, ws, gs)
	}
	assertSameResults(t, input, want.Results, got.Results)
}

// assertSameResults compares materialized per-implementation results
// field by field.
func assertSameResults(t *testing.T, input []byte, want, got []*vm.Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("input %q: %d results from Run, %d from RunFast", input, len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Exit != g.Exit || w.Code != g.Code || w.Steps != g.Steps {
			t.Fatalf("input %q: result[%d] exit Run=%s/%d/%d RunFast=%s/%d/%d",
				input, i, w.Exit, w.Code, w.Steps, g.Exit, g.Code, g.Steps)
		}
		if !bytes.Equal(w.Stdout, g.Stdout) || !bytes.Equal(w.Stderr, g.Stderr) {
			t.Fatalf("input %q: result[%d] output Run=%q/%q RunFast=%q/%q",
				input, i, w.Stdout, w.Stderr, g.Stdout, g.Stderr)
		}
	}
}

// runFastSelfTest drives two equivalent suites over the same input
// sequence — one through Run, one through RunFast — so
// run-sequence-dependent state (warm machines, dirty-page resets)
// stays aligned, exactly like the vm self-test's two machines.
//
// The fast suite takes the inputs in chunks of chunk consecutive
// RunFast calls; after each full chunk it also runs the chunk's last
// input through a materializing Run on the same suite, which borrows
// the same parked machine set. That Run must match too, and its
// Results must be unchanged once every later RunFast has reused the
// machines' output buffers — materialized outcomes own their bytes.
func runFastSelfTest(t *testing.T, parallelism, chunk int) {
	for name, src := range selfTestSources(t) {
		name, src := name, src
		t.Run(name, func(t *testing.T) {
			opts := core.Options{Parallelism: parallelism}
			info, err := core.CheckSource(src)
			if err != nil {
				t.Fatal(err)
			}
			slow, err := core.Build(info, compiler.DefaultSet(), opts)
			if err != nil {
				t.Fatal(err)
			}
			fast, err := core.Build(info, compiler.DefaultSet(), opts)
			if err != nil {
				t.Fatal(err)
			}
			type kept struct {
				input []byte
				want  []*vm.Result // copied when the Run returned
				got   *core.Outcome
			}
			var mixed []kept
			for i, in := range selfTestInputs() {
				want := slow.Run(in)
				assertSameOutcome(t, in, want, fast.RunFast(in))
				if (i+1)%chunk == 0 {
					got := fast.Run(in)
					assertSameOutcome(t, in, want, got)
					snap := make([]*vm.Result, len(got.Results))
					for j, r := range got.Results {
						snap[j] = r.Clone()
					}
					mixed = append(mixed, kept{in, snap, got})
				}
			}
			for _, k := range mixed {
				assertSameResults(t, k.input, k.want, k.got.Results)
			}
		})
	}
}

// TestRunBatchMatchesRun is the sequential equivalence proof. The
// subtest names keep the former batch executor's sizes: chunk 7
// splits the 10-input list with one interleaved Run; chunk 64 is
// longer than the list, so the whole sequence is RunFast alone.
func TestRunBatchMatchesRun(t *testing.T) {
	t.Run("batch7", func(t *testing.T) { runFastSelfTest(t, 1, 7) })
	t.Run("batch64", func(t *testing.T) { runFastSelfTest(t, 1, 64) })
}

// TestRunBatchMatchesRunParallel repeats the proof over suites built
// with the k-way compile fan-out (Parallelism=4): the lowerings that
// ran concurrently must yield the same binaries — check.sh runs this
// under -race.
func TestRunBatchMatchesRunParallel(t *testing.T) {
	t.Run("batch7", func(t *testing.T) { runFastSelfTest(t, 4, 7) })
	t.Run("batch64", func(t *testing.T) { runFastSelfTest(t, 4, 64) })
}
