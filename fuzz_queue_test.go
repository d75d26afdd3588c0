package compdiff_test

// The fuzzer-equivalence pin: a plain fuzz.Fuzzer over every target's
// B_fuzz, for two seeds, must build the same queue, stats and crash
// set as the golden records. The coverage map's layout is the VM's
// business, but which inputs the fuzzer keeps, how it scores and
// favors them, and how it spends its budget must not move when that
// layout does. Seed.Hash is left out: it fingerprints the map's
// layout, not the fuzzer's behaviour. Refresh intentionally changed
// expectations with:
//
//	go test -run TestFuzzQueueGolden -update .

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compdiff/internal/compiler"
	"compdiff/internal/core"
	"compdiff/internal/difffuzz"
	"compdiff/internal/fuzz"
	"compdiff/internal/targets"
	"compdiff/internal/vm"
)

const fuzzQueueBudget = 5000

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%x", sum[:8])
}

// renderFuzzRun formats everything the queue golden pins for one run.
func renderFuzzRun(b *strings.Builder, name string, seed int64, f *fuzz.Fuzzer, st fuzz.Stats) {
	fmt.Fprintf(b, "== %s seed=%d\n", name, seed)
	fmt.Fprintf(b, "stats execs=%d seeds=%d crashes=%d cycles=%d last_new_path=%d\n",
		st.Execs, st.Seeds, st.UniqueCrashes, st.Cycles, st.LastNewPath)
	for i, s := range f.Queue() {
		fmt.Fprintf(b, "queue %d data=%s len=%d covbits=%d favored=%v execs=%d\n",
			i, digest(s.Data), len(s.Data), s.CovBits, s.Favored, s.Execs)
	}
	for _, c := range f.Crashes() {
		fmt.Fprintf(b, "crash data=%s exit=%s\n", digest(c.Input), c.Result.Exit)
	}
}

func TestFuzzQueueGolden(t *testing.T) {
	var b strings.Builder
	for _, tg := range targets.All() {
		info, err := core.CheckSource(tg.Src)
		if err != nil {
			t.Fatalf("%s: %v", tg.Name, err)
		}
		bfuzz, err := compiler.Compile(info, compiler.Config{
			Family:     compiler.Clang,
			Opt:        difffuzz.O1ForSan(vm.SanNone),
			Instrument: true,
		})
		if err != nil {
			t.Fatalf("%s: compile B_fuzz: %v", tg.Name, err)
		}
		for seed := int64(1); seed <= 2; seed++ {
			m := vm.New(bfuzz, vm.Options{Coverage: true})
			f := fuzz.New(m, tg.Seeds, fuzz.Options{Seed: seed})
			renderFuzzRun(&b, tg.Name, seed, f, f.Run(fuzzQueueBudget))
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "golden", "fuzz_queue.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("fuzz queue differs from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("fuzz queue differs from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
