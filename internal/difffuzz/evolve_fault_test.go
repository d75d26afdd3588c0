package difffuzz

// Cancellation, fault-injection and panic tests for the evolutionary
// pool: the evolve mirrors of the runtime and compile pools' telemetry
// flush and torn-save tests, plus the evolve-specific rule that a
// panicking generation merges nothing and ends Run.

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"compdiff/internal/checkpoint"
	"compdiff/internal/telemetry"
)

// compareEvolvePools checks that resumed ended exactly where the
// uninterrupted reference run did.
func compareEvolvePools(t *testing.T, ref, resumed *EvolvePool) {
	t.Helper()
	rs, ss := ref.Stats(), resumed.Stats()
	rs.ShardErrors, ss.ShardErrors = nil, nil
	if !reflect.DeepEqual(rs, ss) {
		t.Fatalf("stats diverged:\nref     %+v\nresumed %+v", rs, ss)
	}
	if !reflect.DeepEqual(ref.BucketKeys(), resumed.BucketKeys()) {
		t.Fatalf("bucket keys differ:\nref     %x\nresumed %x", ref.BucketKeys(), resumed.BucketKeys())
	}
	if !reflect.DeepEqual(ref.PassCoverageBits(), resumed.PassCoverageBits()) {
		t.Fatalf("pass coverage differs: %v vs %v", ref.PassCoverageBits(), resumed.PassCoverageBits())
	}
}

// TestEvolvePoolCancelFlushesTelemetry: a ctx-cancelled evolve run
// must leave a complete plot.jsonl — one line per generation barrier
// plus the final post-cancel snapshot, flushed and closed.
func TestEvolvePoolCancelFlushesTelemetry(t *testing.T) {
	opts := evolveTestOpts()
	dir := t.TempDir()
	opts.StatsDir = dir
	p, err := NewEvolvePool(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.evalHook = func(gen, genome int) {
		if gen == 2 {
			cancel()
		}
	}
	st := p.Run(ctx)
	if st.Generation != 2 {
		t.Fatalf("cancelled run stopped at generation %d, want 2", st.Generation)
	}

	data, err := os.ReadFile(filepath.Join(dir, "plot.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	snaps := p.Snapshots()
	if len(lines) != len(snaps) {
		t.Fatalf("plot.jsonl has %d lines, in-memory series %d snapshots", len(lines), len(snaps))
	}
	if len(lines) != 3 {
		t.Fatalf("plot.jsonl has %d lines, want 3 (2 generation barriers + post-cancel flush)", len(lines))
	}
	var tail telemetry.Snapshot
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tail); err != nil {
		t.Fatalf("tail line does not parse: %v", err)
	}
	want := snaps[len(snaps)-1]
	if tail.Programs != want.Programs || tail.Generation != want.Generation ||
		tail.UniqueBuckets != want.UniqueBuckets || tail.PassCoverage != want.PassCoverage {
		t.Fatalf("tail line %+v does not match final snapshot %+v", tail, want)
	}
	if tail.Programs != st.Programs || tail.Generation != st.Generation {
		t.Fatalf("tail records %d programs at generation %d, Run returned %d at %d",
			tail.Programs, tail.Generation, st.Programs, st.Generation)
	}
	// The recorder was closed by the cancelled Run; Close is a no-op.
	p.Close()
}

// TestEvolvePoolCheckpointFaultInjection kills the saver at assorted
// file operations during a generation-barrier save and checks the
// directory still resumes from the last durable checkpoint, with the
// resumed campaign ending exactly where an uninterrupted one does.
func TestEvolvePoolCheckpointFaultInjection(t *testing.T) {
	// Half the usual population: the sweep runs seven campaigns.
	small := func() EvolvePoolOptions {
		o := evolveTestOpts()
		o.Pop = 4
		o.CheckpointDir = t.TempDir()
		return o
	}
	ref, _ := runEvolve(t, small())

	for _, ops := range []int{0, 2, 6} {
		opts := small()
		first, err := NewEvolvePool(opts)
		if err != nil {
			t.Fatal(err)
		}
		// Two clean generation saves, then the save at the third
		// barrier dies ops file operations in; the fourth generation
		// is cancelled before it merges.
		ctx, cancel := context.WithCancel(context.Background())
		first.evalHook = func(gen, genome int) {
			switch gen {
			case 2:
				if genome == 0 {
					first.saver.InjectFault(ops)
				}
			case 3:
				cancel()
			}
		}
		first.Run(ctx)
		cancel()

		st, _, err := checkpoint.Load(opts.CheckpointDir)
		if err != nil {
			t.Fatalf("ops=%d: torn save corrupted the directory: %v", ops, err)
		}
		if g := st.Evolve.Generation; g != 2 && g != 3 {
			t.Fatalf("ops=%d: loadable checkpoint holds generation %d, want 2 (old) or 3 (new)", ops, g)
		}

		resumed, err := ResumeEvolvePool(opts)
		if err != nil {
			t.Fatalf("ops=%d: resume after torn save: %v", ops, err)
		}
		resumed.Run(context.Background())
		compareEvolvePools(t, ref, resumed)
	}
}

// TestEvolvePoolPanicAbortsGeneration: a shard that panics mid-
// generation is recorded in ShardErrors, the generation merges
// nothing, Run stops there, and the durable checkpoint stays the
// previous barrier's.
func TestEvolvePoolPanicAbortsGeneration(t *testing.T) {
	opts := evolveTestOpts()
	opts.Shards = 2
	opts.CheckpointDir = t.TempDir()
	p, err := NewEvolvePool(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Genome 2 belongs to shard 0 (genome i is owned by shard i mod 2).
	p.evalHook = func(gen, genome int) {
		if gen == 2 && genome == 2 {
			panic("injected evaluation failure")
		}
	}
	st := p.Run(context.Background())
	if st.Generation != 2 {
		t.Fatalf("Run stopped at generation %d, want 2 (the panicking one)", st.Generation)
	}
	if st.ShardErrors[0] == nil || !strings.Contains(st.ShardErrors[0].Error(), "panicked") {
		t.Fatalf("shard 0 panicked but ShardErrors[0] = %v", st.ShardErrors[0])
	}
	if st.ShardErrors[1] != nil {
		t.Fatalf("healthy shard 1 reported %v", st.ShardErrors[1])
	}
	if want := int64(2 * opts.Pop); st.Programs != want {
		t.Fatalf("aborted generation merged: %d programs, want %d", st.Programs, want)
	}
	ck, _, err := checkpoint.Load(opts.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Evolve.Generation != 2 || ck.Evolve.Programs != st.Programs {
		t.Fatalf("checkpoint holds generation %d / %d programs, want the previous barrier's (2 / %d)",
			ck.Evolve.Generation, ck.Evolve.Programs, st.Programs)
	}
	if seq := p.CheckpointSeq(); seq != 2 {
		t.Fatalf("checkpoint sequence %d, want 2 (one save per completed generation)", seq)
	}
}
