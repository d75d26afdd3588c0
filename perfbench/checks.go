package main

// Correctness checks on a round's findings, made outside the timed
// part of the round.

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"compdiff/internal/compiler"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
	"compdiff/internal/targets"
	"compdiff/internal/triage"
	"compdiff/internal/vm"
)

// reference compiles the target afresh under every implementation,
// on the reference interpreter (the VM's per-step loop rather than the
// fast loop the campaign runs on), once per run.
func (b *bench) reference(tg *targets.Target) ([]*vm.Machine, error) {
	if ms := b.refs[tg.Name]; ms != nil {
		return ms, nil
	}
	prog, err := parser.Parse(tg.Src)
	if err != nil {
		return nil, err
	}
	info, err := sema.Check(prog)
	if err != nil {
		return nil, err
	}
	var ms []*vm.Machine
	for _, cfg := range compiler.DefaultSet() {
		bin, err := compiler.Compile(info, cfg)
		if err != nil {
			return nil, err
		}
		ms = append(ms, vm.New(bin, vm.Options{Reference: true}))
	}
	if b.refs == nil {
		b.refs = map[string][]*vm.Machine{}
	}
	b.refs[tg.Name] = ms
	return ms, nil
}

// replayWitnesses re-runs every runtime bucket's witness input on the
// reference binaries; it must diverge with the bucket's partition.
func (b *bench) replayWitnesses(rd *round, tg *targets.Target, buckets []*triage.Bucket) {
	ms, err := b.reference(tg)
	if err != nil {
		rd.checks++
		rd.fail("%s: building reference binaries: %v", tg.Name, err)
		return
	}
	for _, bk := range buckets {
		if bk.Fingerprint.Kind != triage.KindRuntime || bk.Outcome == nil {
			continue
		}
		rd.checks++
		encs := make([][]byte, len(ms))
		for i, m := range ms {
			encs[i] = m.Run(bk.Outcome.Input).Encode()
		}
		part := make([]uint8, len(encs))
		for i := range encs {
			part[i] = uint8(i)
			for j := 0; j < i; j++ {
				if bytes.Equal(encs[i], encs[j]) {
					part[i] = uint8(j)
					break
				}
			}
		}
		if !bytes.Equal(part, bk.Fingerprint.Partition) {
			rd.fail("%s round %d: bucket %016x witness %q replays with partition %v, campaign saw %v",
				tg.Name, rd.index, bk.Key, bk.Outcome.Input, part, bk.Fingerprint.Partition)
		}
	}
}

// golden is one compile golden: its program and the fingerprint key
// and kind its .golden file pins.
type golden struct {
	name string
	src  string
	key  uint64
	kind string
}

// compileGoldens reads testdata/golden/compile_*.{mc,golden} from the
// repository root the benchmark runs in.
func compileGoldens() ([]golden, error) {
	paths, err := filepath.Glob(filepath.Join("testdata", "golden", "compile_*.mc"))
	if err != nil {
		return nil, err
	}
	if len(paths) < 3 {
		return nil, fmt.Errorf("found %d compile goldens under testdata/golden, want 3", len(paths))
	}
	var out []golden
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		g := golden{name: filepath.Base(p), src: string(src)}
		pin, err := os.Open(strings.TrimSuffix(p, ".mc") + ".golden")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(pin)
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			switch {
			case len(f) >= 2 && f[0] == "kind":
				g.kind = f[1]
			case len(f) >= 2 && f[0] == "fingerprint":
				g.key, err = strconv.ParseUint(f[1], 16, 64)
			}
		}
		pin.Close()
		if err != nil || g.kind == "" || g.key == 0 {
			return nil, fmt.Errorf("%s: no kind and fingerprint lines (%v)", p, err)
		}
		out = append(out, g)
	}
	return out, nil
}

// checkGoldens requires a bucket with each golden's pinned key and kind.
func checkGoldens(rd *round, gs []golden, bs *triage.BucketStore) {
	byKey := map[uint64]*triage.Bucket{}
	for _, bk := range bs.Buckets() {
		byKey[bk.Key] = bk
	}
	for _, g := range gs {
		rd.checks++
		bk := byKey[g.key]
		switch {
		case bk == nil:
			rd.fail("compile-oracle round %d: no bucket with %s's pinned fingerprint %016x", rd.index, g.name, g.key)
		case bk.Fingerprint.Kind.String() != g.kind:
			rd.fail("compile-oracle round %d: %s's bucket is %s, pinned %s", rd.index, g.name, bk.Fingerprint.Kind, g.kind)
		}
	}
}
