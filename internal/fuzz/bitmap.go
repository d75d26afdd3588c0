// Package fuzz implements a coverage-guided greybox fuzzer in the
// AFL++ mold: an edge map with hit-count bucketing, a seed queue with
// favored-entry culling, deterministic and havoc mutation stages, and
// splicing. The map's length is the executor's: the VM gives it one
// byte per AFL index the binary can reach, as AFL++ sizes its map to
// the binary's edge count, so the per-exec sweeps below cost a few
// hundred bytes rather than 64 KiB. CompDiff-AFL++ (package difffuzz)
// plugs its differential oracle into the execution hook without
// touching this core loop, mirroring how the paper integrates CompDiff
// into AFL++ without changing the fuzzer's logic (Algorithm 1).
package fuzz

import "math/bits"

// classLookup buckets raw edge hit counts the way AFL does, so that
// loop-count changes register as new coverage without exploding the
// map: 0, 1, 2, 3, 4-7, 8-15, 16-31, 32-127, 128-255.
var classLookup = buildClassLookup()

func buildClassLookup() [256]byte {
	var l [256]byte
	l[0] = 0
	l[1] = 1
	l[2] = 2
	l[3] = 4
	for i := 4; i < 8; i++ {
		l[i] = 8
	}
	for i := 8; i < 16; i++ {
		l[i] = 16
	}
	for i := 16; i < 32; i++ {
		l[i] = 32
	}
	for i := 32; i < 128; i++ {
		l[i] = 64
	}
	for i := 128; i < 256; i++ {
		l[i] = 128
	}
	return l
}

// Classify rewrites a raw hit-count map into bucketed form, in place.
func Classify(cov []byte) {
	for i, v := range cov {
		if v != 0 {
			cov[i] = classLookup[v]
		}
	}
}

// HasNewBits reports whether classified coverage cov contains bits not
// yet in virgin, updating virgin. Return values follow AFL: 2 when a
// brand-new edge was hit, 1 when only hit counts changed, 0 otherwise.
func HasNewBits(virgin, cov []byte) int {
	ret := 0
	for i, v := range cov {
		if v == 0 || virgin[i]&v == v {
			continue
		}
		if virgin[i] == 0 {
			ret = 2
		} else if ret == 0 {
			ret = 1
		}
		virgin[i] |= v
	}
	return ret
}

// CountBits returns the number of set bucket bits (queue scoring).
func CountBits(cov []byte) int {
	n := 0
	for _, v := range cov {
		n += bits.OnesCount8(v)
	}
	return n
}

// CovHash is a cheap fingerprint of a classified bitmap, used to
// detect "same path" executions. Zero bytes never contribute.
func CovHash(cov []byte) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i, v := range cov {
		if v != 0 {
			h ^= uint64(i)<<8 | uint64(v)
			h *= 0x100000001b3
		}
	}
	return h
}
