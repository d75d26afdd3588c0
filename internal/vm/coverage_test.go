package vm_test

import (
	"bytes"
	"testing"

	"compdiff/internal/compiler"
	"compdiff/internal/ir"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
	"compdiff/internal/targets"
	"compdiff/internal/vm"
)

// compile builds src with clang -O2, edge-instrumented like a
// campaign's B_fuzz when instrument is set.
func compile(src string, instrument bool) *ir.Program {
	info := sema.MustCheck(parser.MustParse(src))
	return compiler.MustCompile(info, compiler.Config{Family: compiler.Clang, Opt: compiler.O2, Instrument: instrument})
}

// checkCompactMap checks that a coverage machine's map has one slot per
// reachable AFL index — edgeHash[e] for a run's first edge and
// edgeHash[e]^edgeHash[p]>>1 after edge p — and that distinct indices
// get distinct slots, numbered in ascending index order.
func checkCompactMap(t *testing.T, name string, bin *ir.Program) {
	t.Helper()
	m := vm.New(bin, vm.Options{Coverage: true})
	covSlot, edgeHash := vm.CovTables(m)
	reach := map[uint16]bool{}
	for _, e := range edgeHash {
		reach[e] = true
		for _, p := range edgeHash {
			reach[e^p>>1] = true
		}
	}
	n := len(m.Coverage())
	if n != len(reach) {
		t.Errorf("%s: map is %d bytes, want %d reachable indices", name, n, len(reach))
	}
	if e := bin.NumEdges; n > e*(e+1) {
		t.Errorf("%s: map is %d bytes, more than %d edges allow", name, n, e)
	}
	// Strictly increasing slots in index order: injective and ordered.
	last := -1
	for idx := 0; idx < vm.CovMapSize; idx++ {
		if !reach[uint16(idx)] {
			continue
		}
		s := int(covSlot[idx])
		if s >= n || s <= last {
			t.Fatalf("%s: index %d maps to slot %d (map %d bytes, previous slot %d)", name, idx, s, n, last)
		}
		last = s
	}
}

func TestCompactCoverageMap(t *testing.T) {
	for _, tg := range targets.All() {
		checkCompactMap(t, tg.Name, compile(tg.Src, true))
	}
	plain := compile(`int main() { return 0; }`, false)
	if plain.NumEdges != 0 {
		t.Fatalf("uninstrumented program has %d edges", plain.NumEdges)
	}
	checkCompactMap(t, "zero-edge", plain)
}

// TestCompactCoverageFastMatchesReference: the fast loop and the
// reference loop fill the compact map identically on every target's
// seeds.
func TestCompactCoverageFastMatchesReference(t *testing.T) {
	for _, tg := range targets.All() {
		bin := compile(tg.Src, true)
		fast := vm.New(bin, vm.Options{Coverage: true})
		ref := vm.New(bin, vm.Options{Coverage: true, Reference: true})
		for i, seed := range tg.Seeds {
			fast.Run(seed)
			ref.Run(seed)
			if !bytes.Equal(fast.Coverage(), ref.Coverage()) {
				t.Errorf("%s seed %d: fast and reference coverage differ", tg.Name, i)
			}
		}
	}
}
