package difffuzz

// Tests for the evolutionary campaign pool: same-seed determinism
// under different shard counts, kill-9-mid-generation resume
// equivalence, campaign-hash coverage of the evolve knobs, and the
// ISSUE's acceptance property — an -evolve campaign reaches strictly
// higher cumulative pass coverage and at least as many unique triage
// buckets as a blind progen campaign on the same program budget.

import (
	"context"
	"errors"
	"math/bits"
	"reflect"
	"testing"

	"compdiff/internal/checkpoint"
	"compdiff/internal/compiler"
	"compdiff/internal/progcache"
	"compdiff/internal/progen"
)

// evolveTestOpts is a small but non-trivial campaign: enough
// generations for the idiom mutators to engage, small enough to stay
// test-speed.
func evolveTestOpts() EvolvePoolOptions {
	return EvolvePoolOptions{Pop: 8, Generations: 4, Seed: 1234, StepLimit: 2_000_000}
}

func runEvolve(t *testing.T, opts EvolvePoolOptions) (*EvolvePool, EvolvePoolStats) {
	t.Helper()
	p, err := NewEvolvePool(opts)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Run(context.Background())
	for s, err := range st.ShardErrors {
		if err != nil {
			t.Fatalf("shard %d died: %v", s, err)
		}
	}
	return p, st
}

func TestEvolvePoolShardCountInvariance(t *testing.T) {
	o1 := evolveTestOpts()
	o1.Shards = 1
	p1, s1 := runEvolve(t, o1)
	o4 := evolveTestOpts()
	o4.Shards = 4
	p4, s4 := runEvolve(t, o4)

	if s1.PopulationSignature != s4.PopulationSignature {
		t.Fatalf("population signatures differ across shard counts: %016x vs %016x",
			s1.PopulationSignature, s4.PopulationSignature)
	}
	if !reflect.DeepEqual(p1.BucketKeys(), p4.BucketKeys()) {
		t.Fatalf("bucket keys differ across shard counts:\n1: %x\n4: %x", p1.BucketKeys(), p4.BucketKeys())
	}
	if !reflect.DeepEqual(p1.PassCoverageBits(), p4.PassCoverageBits()) {
		t.Fatalf("pass coverage differs across shard counts:\n1: %v\n4: %v",
			p1.PassCoverageBits(), p4.PassCoverageBits())
	}
	if s1.Programs != s4.Programs || s1.Findings != s4.Findings || s1.FrontendRejects != s4.FrontendRejects {
		t.Fatalf("counters differ across shard counts: %+v vs %+v", s1, s4)
	}
	if s1.BestFitness != s4.BestFitness || s1.MeanFitness != s4.MeanFitness {
		t.Fatalf("fitness telemetry differs across shard counts: %v/%v vs %v/%v",
			s1.BestFitness, s1.MeanFitness, s4.BestFitness, s4.MeanFitness)
	}
}

func TestEvolvePoolKillMidGenerationResumeEquivalence(t *testing.T) {
	// Uninterrupted reference run.
	ref := evolveTestOpts()
	ref.CheckpointDir = t.TempDir()
	pRef, sRef := runEvolve(t, ref)

	// Interrupted run: cancelled in the middle of generation 2's
	// evaluation — after some genomes of the generation are already
	// measured, before the barrier merges anything.
	dir := t.TempDir()
	killed := evolveTestOpts()
	killed.CheckpointDir = dir
	pK, err := NewEvolvePool(killed)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pK.evalHook = func(gen, genome int) {
		if gen == 2 && genome >= 3 {
			cancel()
		}
	}
	stK := pK.Run(ctx)
	if stK.Generation != 2 {
		t.Fatalf("interrupted run stopped at generation %d, want 2", stK.Generation)
	}

	// Resume in a new pool (simulating a new process) and finish.
	resumed := evolveTestOpts()
	resumed.CheckpointDir = dir
	pR, err := ResumeEvolvePool(resumed)
	if err != nil {
		t.Fatal(err)
	}
	sR := pR.Run(context.Background())

	if sR.Generation != sRef.Generation {
		t.Fatalf("resumed run finished at generation %d, reference %d", sR.Generation, sRef.Generation)
	}
	if sR.PopulationSignature != sRef.PopulationSignature {
		t.Fatalf("resumed population signature %016x != uninterrupted %016x",
			sR.PopulationSignature, sRef.PopulationSignature)
	}
	if !reflect.DeepEqual(pR.BucketKeys(), pRef.BucketKeys()) {
		t.Fatalf("resumed bucket keys differ:\nresumed: %x\nref:     %x", pR.BucketKeys(), pRef.BucketKeys())
	}
	if !reflect.DeepEqual(pR.PassCoverageBits(), pRef.PassCoverageBits()) {
		t.Fatalf("resumed pass coverage differs: %v vs %v", pR.PassCoverageBits(), pRef.PassCoverageBits())
	}
	if sR.Programs != sRef.Programs || sR.Findings != sRef.Findings {
		t.Fatalf("resumed counters differ: %+v vs %+v", sR, sRef)
	}
	if sR.BestFitness != sRef.BestFitness || sR.MeanFitness != sRef.MeanFitness {
		t.Fatalf("resumed fitness telemetry differs: %v/%v vs %v/%v",
			sR.BestFitness, sR.MeanFitness, sRef.BestFitness, sRef.MeanFitness)
	}

	// A resume of the now-complete campaign runs nothing and must
	// reprint the checkpointed summary — including the fitness fields,
	// which therefore live in the checkpoint.
	again := evolveTestOpts()
	again.CheckpointDir = dir
	pA, err := ResumeEvolvePool(again)
	if err != nil {
		t.Fatal(err)
	}
	sA := pA.Run(context.Background())
	if sA.BestFitness != sRef.BestFitness || sA.MeanFitness != sRef.MeanFitness {
		t.Fatalf("reprint fitness %v/%v != checkpointed %v/%v",
			sA.BestFitness, sA.MeanFitness, sRef.BestFitness, sRef.MeanFitness)
	}
	if sA.Programs != sRef.Programs || !reflect.DeepEqual(pA.BucketKeys(), pRef.BucketKeys()) {
		t.Fatal("reprint of a complete campaign lost state")
	}
}

func TestEvolvePoolResumeErrorClasses(t *testing.T) {
	opts := evolveTestOpts()
	if _, err := ResumeEvolvePool(opts); err == nil {
		t.Fatal("resume without CheckpointDir succeeded")
	}
	opts.CheckpointDir = t.TempDir()
	if _, err := ResumeEvolvePool(opts); !errors.Is(err, checkpoint.ErrNoCheckpoint) {
		t.Fatalf("resume of empty dir: %v, want ErrNoCheckpoint", err)
	}

	// Write a checkpoint, then resume with different knobs: mismatch.
	p, err := NewEvolvePool(opts)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(context.Background())
	changed := opts
	changed.Seed++
	if _, err := ResumeEvolvePool(changed); !errors.Is(err, checkpoint.ErrMismatch) {
		t.Fatalf("resume with changed seed: %v, want ErrMismatch", err)
	}
	// A fresh pool must refuse to clobber the existing campaign.
	if _, err := NewEvolvePool(opts); err == nil {
		t.Fatal("fresh pool clobbered an existing checkpoint directory")
	}
}

func TestEvolveCampaignHashCoversKnobs(t *testing.T) {
	base := EvolveCampaignHash(evolveTestOpts())
	for name, mut := range map[string]func(*EvolvePoolOptions){
		"pop":         func(o *EvolvePoolOptions) { o.Pop++ },
		"generations": func(o *EvolvePoolOptions) { o.Generations++ },
		"seed":        func(o *EvolvePoolOptions) { o.Seed++ },
		"shards":      func(o *EvolvePoolOptions) { o.Shards = 3 },
		"steplimit":   func(o *EvolvePoolOptions) { o.StepLimit++ },
		"inputs":      func(o *EvolvePoolOptions) { o.RuntimeInputs = [][]byte{[]byte("x")} },
	} {
		o := evolveTestOpts()
		mut(&o)
		if EvolveCampaignHash(o) == base {
			t.Errorf("changing %s does not change the campaign hash", name)
		}
	}
	// Observability and parallelism knobs must not change it.
	o := evolveTestOpts()
	o.Parallelism = 7
	o.StatsDir = "/tmp/x"
	o.CheckpointDir = "/tmp/y"
	if EvolveCampaignHash(o) != base {
		t.Error("an observability knob changed the campaign hash")
	}
}

func TestEvolvePoolTelemetry(t *testing.T) {
	opts := evolveTestOpts()
	opts.StatsDir = t.TempDir()
	p, st := runEvolve(t, opts)
	defer p.Close()
	snaps := p.Snapshots()
	if len(snaps) != opts.Generations {
		t.Fatalf("%d snapshots, want one per generation (%d)", len(snaps), opts.Generations)
	}
	last := snaps[len(snaps)-1]
	if last.Generation != opts.Generations {
		t.Fatalf("last snapshot generation %d, want %d", last.Generation, opts.Generations)
	}
	if last.Programs != int64(opts.Pop*opts.Generations) {
		t.Fatalf("last snapshot programs %d, want %d", last.Programs, opts.Pop*opts.Generations)
	}
	if last.PassCoverage == 0 {
		t.Fatal("campaign fired no passes at all; fitness telemetry is dead")
	}
	if last.BestFitness == 0 && last.MeanFitness == 0 {
		t.Fatal("fitness telemetry is all zero")
	}
	if st.PassCoverage != last.PassCoverage {
		t.Fatalf("stats coverage %d != snapshot coverage %d", st.PassCoverage, last.PassCoverage)
	}
}

// TestEvolveBeatsBlindProgen is the ISSUE's acceptance property: on
// the same program budget and seed, the evolutionary campaign reaches
// strictly higher cumulative pass coverage and at least as many
// unique triage buckets as blind progen sampling. The mechanism is
// structural — progen is UB-free and conservative by construction, so
// it can never emit the overflow-guard, deref-null-check, dead-load,
// or wrapping-multiply idioms the instrumented rewrites key on, while
// the evolve mutators insert exactly those shapes.
func TestEvolveBeatsBlindProgen(t *testing.T) {
	opts := evolveTestOpts()
	opts.Generations = 6
	pEvo, sEvo := runEvolve(t, opts)
	budget := opts.Pop * opts.Generations

	// Blind campaign: the same number of progen programs on the same
	// founder seed stream, through the compile-oracle pool.
	corpus := make([]string, 0, budget)
	for i := 0; i < budget; i++ {
		corpus = append(corpus, progen.Generate(opts.Seed+int64(i)).Src)
	}
	pBlind, err := NewCompilePool(corpus, CompilePoolOptions{StepLimit: opts.StepLimit})
	if err != nil {
		t.Fatal(err)
	}
	pBlind.Run(context.Background())

	// The compile pool does not track pass coverage; union it the same
	// way the evolve pool does, over the same configs.
	cfgs := compiler.DefaultSet()
	blindCum := make([]compiler.PassBits, len(cfgs))
	for _, src := range corpus {
		comp := progcache.Compile(src, cfgs, 1)
		for i, r := range comp.Results {
			blindCum[i] |= r.PassBits
		}
	}
	blindCov := 0
	for _, b := range blindCum {
		blindCov += bits.OnesCount32(uint32(b))
	}

	if sEvo.PassCoverage <= blindCov {
		t.Fatalf("evolve coverage %d not strictly above blind coverage %d on budget %d",
			sEvo.PassCoverage, blindCov, budget)
	}
	evoBuckets := len(pEvo.BucketKeys())
	blindBuckets := len(pBlind.BucketKeys())
	if evoBuckets < blindBuckets {
		t.Fatalf("evolve found %d buckets, blind %d", evoBuckets, blindBuckets)
	}
	if evoBuckets == 0 {
		t.Fatal("evolve campaign found no buckets at all; the unstable-code idioms never landed")
	}
	t.Logf("budget %d: evolve coverage %d / buckets %d, blind coverage %d / buckets %d",
		budget, sEvo.PassCoverage, evoBuckets, blindCov, blindBuckets)
}
