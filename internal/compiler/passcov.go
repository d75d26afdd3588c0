package compiler

import (
	"math/bits"
	"strings"
)

// PassBits is the per-implementation fired-rewrite bitmap: one bit per
// UB-exploiting optimizer rewrite, set when a compilation actually
// applied that rewrite somewhere in the program. It is the
// compile-stage analog of the fuzz edge bitmap — edge coverage says
// which program paths an input reached, pass coverage says which
// optimizer decisions a program provoked — and it is what
// coverage-directed program generation (internal/evolve) steers by: a
// program that makes an implementation fold an overflow check is close
// to a divergence even while every checksum still agrees.
//
// Bits are set at the moment the rewrite is decided or applied (the
// analyzeFunc side tables for the flow-sensitive folds, the lowering
// sites for folding, widening, and contraction), so a bit is set iff
// the emitted code differs from the non-optimizing lowering because of
// that pass.
type PassBits uint32

const (
	// PassFoldOverflow: a signed overflow guard (`a + b < a`) was
	// folded to a constant under the no-signed-overflow licence.
	PassFoldOverflow PassBits = 1 << iota
	// PassFoldNull: a null check dominated by a dereference was folded.
	PassFoldNull
	// PassDeadLoad: a pure expression statement was deleted.
	PassDeadLoad
	// PassWidenMul: a signed-int multiply chain feeding a 64-bit
	// context was evaluated directly in 64 bits.
	PassWidenMul
	// PassContractFMA: a double a*b+c was contracted to fused
	// multiply-add.
	PassContractFMA
	// PassConstFold: a non-UB constant expression was folded at -O1+.
	PassConstFold

	// passLimit is one past the highest defined bit; the compile-time
	// guards below keep it, NumPassKinds, and passNames in lock step.
	passLimit
)

// NumPassKinds is the pass-coverage bitmap width in bits. Every
// consumer sizing an array or telemetry field by it is protected by
// the assertions below.
const NumPassKinds = 6

// Compile-time width guards: adding a pass bit without bumping
// NumPassKinds (or growing past the uint32 carrier) refuses to build,
// in both directions — a negative constant does not convert to uint.
const (
	_ = uint(passLimit - 1<<NumPassKinds)
	_ = uint(1<<NumPassKinds - passLimit)
	_ = uint(32 - NumPassKinds)
)

// passNames, indexed by bit position. The array length is the same
// compile-time guard again: it must equal NumPassKinds exactly.
var passNames = [NumPassKinds]string{
	"fold-overflow-check",
	"fold-null-check",
	"dead-load-elim",
	"widen-mul-to-long",
	"contract-fma",
	"const-fold",
}

// PassName returns the name of pass bit i (0 <= i < NumPassKinds).
func PassName(i int) string { return passNames[i] }

// Count returns the number of set bits.
func (b PassBits) Count() int { return bits.OnesCount32(uint32(b)) }

// Names lists the set bits' pass names, bit order.
func (b PassBits) Names() []string {
	var out []string
	for i := 0; i < NumPassKinds; i++ {
		if b&(1<<i) != 0 {
			out = append(out, passNames[i])
		}
	}
	return out
}

// String renders the bitmap as a +-joined pass list ("none" when empty).
func (b PassBits) String() string {
	if b == 0 {
		return "none"
	}
	return strings.Join(b.Names(), "+")
}
