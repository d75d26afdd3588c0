package difffuzz

// EvolvePool drives the evolutionary coverage-directed campaign: a
// population of MiniC genomes (internal/evolve) is evaluated through
// the compile-stage and runtime differential oracles each generation,
// scored by the composite fitness (pass coverage, divergence
// proximity, parsimony), and bred into the next generation at a
// single-threaded barrier. Evaluation is sharded — genome i is owned
// by shard i mod Shards — but every fitness input is merged at the
// barrier in genome-index order, so the population sequence is
// invariant under the shard count. Checkpoints are taken only at
// generation barriers; a kill mid-generation resumes by re-evaluating
// the checkpointed population, which is deterministic, so resume is
// indistinguishable from an uninterrupted run.

import (
	"context"
	"fmt"
	"math/bits"
	"sync/atomic"

	"compdiff/internal/checkpoint"
	"compdiff/internal/compiler"
	"compdiff/internal/core"
	"compdiff/internal/evolve"
	"compdiff/internal/hash"
	"compdiff/internal/telemetry"
	"compdiff/internal/triage"
)

// EvolvePoolOptions configures an evolutionary campaign.
type EvolvePoolOptions struct {
	// Configs are the implementations to cross-check. Defaults to the
	// paper's ten.
	Configs []compiler.Config
	// Pop is the population size (default 24, minimum 2).
	Pop int
	// Generations is the number of generations to evaluate (default
	// 20). The campaign's program budget is Pop × Generations k-way
	// compiles, before cache hits.
	Generations int
	// Seed derives the founder population and every per-generation
	// RNG stream.
	Seed int64
	// Shards is the number of evaluation worker shards (default 1).
	// Scheduling only at the evaluation level, but part of the
	// campaign hash for consistency with the other pools.
	Shards int
	// StepLimit bounds each runtime oracle execution.
	StepLimit int64
	// Parallelism is the per-genome compile and suite parallelism.
	Parallelism int
	// RuntimeInputs are run differentially on every genome all
	// implementations accept. Default: just the empty input.
	RuntimeInputs [][]byte
	// StatsDir, when set, streams one telemetry snapshot per
	// generation to <dir>/plot.jsonl.
	StatsDir string
	// CheckpointDir enables durable snapshots; CheckpointEvery is the
	// number of generation barriers between them (default 1).
	CheckpointDir   string
	CheckpointEvery int64

	// resume marks pools built by ResumeEvolvePool.
	resume bool
}

func (o EvolvePoolOptions) withDefaults() EvolvePoolOptions {
	if o.Pop == 0 {
		o.Pop = 24
	}
	if o.Generations == 0 {
		o.Generations = 20
	}
	if o.Shards < 1 {
		o.Shards = 1
	}
	return o
}

// evolveOpts maps the pool knobs onto the evolve engine's options.
// The engine's remaining knobs stay at their defaults, which the
// campaign hash therefore pins implicitly.
func (o EvolvePoolOptions) evolveOpts() evolve.Options {
	return evolve.Options{Seed: o.Seed}
}

// EvolvePoolStats is the campaign summary.
type EvolvePoolStats struct {
	Shards int
	// Generation is the number of fully evaluated generations;
	// Generations the configured total.
	Generation  int
	Generations int
	Pop         int
	// Programs counts genome evaluations (one k-way compile each,
	// before cache hits).
	Programs int64
	// FrontendRejects counts genomes the shared front end refused plus
	// uniform-diagnostic rejects; gated mutation keeps this at zero in
	// practice.
	FrontendRejects int64
	// Findings counts oracle hits before dedup.
	Findings int64
	// UniqueBuckets is the deduplicated finding count, broken down by
	// kind below.
	UniqueBuckets      int
	CompileDivergences int
	ICEs               int
	DiagMismatches     int
	RuntimeBuckets     int
	// PassCoverage counts distinct (implementation, pass) pairs fired.
	PassCoverage int
	// BestFitness and MeanFitness are from the last evaluated
	// generation.
	BestFitness float64
	MeanFitness float64
	// PopulationSignature is the order-independent identity of the
	// current population — the cross-shard/cross-resume determinism
	// fingerprint.
	PopulationSignature uint64
	// ShardErrors has one entry per shard; non-nil marks a shard that
	// panicked during the last evaluation.
	ShardErrors []error
}

// genomeEval is one genome's raw oracle measurements, produced by a
// shard and folded into fitness at the barrier.
type genomeEval struct {
	eval     evolve.Eval
	co       *core.CompileOutcome // non-nil when some implementation rejected/ICEd
	outcomes []*core.Outcome      // diverged runtime outcomes
}

// EvolvePool is the sharded evolutionary campaign.
type EvolvePool struct {
	driver
	oracle

	opts EvolvePoolOptions

	pop        []*evolve.Genome
	generation int
	// cum is the cumulative per-implementation fired-rewrite bitmap —
	// the base the NewBits fitness term is scored against.
	cum []compiler.PassBits

	programs        int64
	frontendRejects int64
	findings        int64
	lastBest        float64
	lastMean        float64

	// evals holds the current generation's measurements, positional by
	// genome; cancelled marks a generation a shard left unfinished.
	evals     []genomeEval
	cancelled atomic.Bool

	// evalHook runs before each genome evaluation (test seam, like the
	// other pools' epochHook).
	evalHook func(gen, genome int)
}

// EvolveCampaignHash fingerprints everything that determines an
// evolutionary campaign's population sequence and findings:
// implementations, population size, generations, seed, sharding,
// step limit, and runtime inputs. Parallelism and the observability
// and cache knobs are excluded, as in the other campaign hashes.
func EvolveCampaignHash(opts EvolvePoolOptions) uint64 {
	opts = opts.withDefaults()
	d := hash.New128(0xe701)
	for _, cfg := range configsOrDefault(opts.Configs) {
		fmt.Fprintf(d, "cfg:%s\n", cfg.Name())
	}
	fmt.Fprintf(d, "pop:%d gens:%d seed:%d shards:%d step:%d\n",
		opts.Pop, opts.Generations, opts.Seed, opts.Shards, opts.StepLimit)
	for _, in := range inputsOrEmpty(opts.RuntimeInputs) {
		fmt.Fprintf(d, "input:%d:", len(in))
		d.Write(in)
	}
	h1, _ := d.Sum128()
	return h1
}

// NewEvolvePool builds a fresh evolutionary campaign: the founder
// population is progen on consecutive seeds from opts.Seed.
func NewEvolvePool(opts EvolvePoolOptions) (*EvolvePool, error) {
	opts = opts.withDefaults()
	if opts.Pop < 2 {
		return nil, fmt.Errorf("difffuzz: evolve population must be at least 2, got %d", opts.Pop)
	}
	if opts.Generations < 1 {
		return nil, fmt.Errorf("difffuzz: evolve needs at least 1 generation, got %d", opts.Generations)
	}
	orc, err := newOracle(opts.Configs, opts.StepLimit, opts.Parallelism, opts.RuntimeInputs)
	if err != nil {
		return nil, err
	}
	p := &EvolvePool{
		oracle: orc,
		opts:   opts,
		pop:    evolve.SeedPopulation(opts.Seed, opts.Pop),
		cum:    make([]compiler.PassBits, len(orc.cfgs)),
	}
	err = p.open(driverConfig{
		shards:          opts.Shards,
		shardName:       "evolve shard",
		abortOnPanic:    true,
		checkpointDir:   opts.CheckpointDir,
		checkpointEvery: opts.CheckpointEvery,
		optionsHash:     EvolveCampaignHash(opts),
		resume:          opts.resume,
		stats:           opts.StatsDir != "",
		statsDir:        opts.StatsDir,
	}, nil)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// ResumeEvolvePool rebuilds an evolve pool from the checkpoint in
// opts.CheckpointDir. Error classification matches the other pools:
// ErrNoCheckpoint, ErrMismatch, ErrCorrupt.
func ResumeEvolvePool(opts EvolvePoolOptions) (*EvolvePool, error) {
	return resumeFrom(opts.CheckpointDir, EvolveCampaignHash(opts), "seed, population, and campaign options", func() (*EvolvePool, error) {
		opts.resume = true
		return NewEvolvePool(opts)
	})
}

// Run evolves from the current generation to the configured total (or
// until ctx is cancelled), evaluating each generation sharded and
// breeding at the barrier. A generation cancelled or panicking
// mid-evaluation merges nothing and ends Run, so the last barrier's
// checkpoint stays the resume point and resume re-evaluates that
// generation identically. Safe to call again after cancellation.
func (p *EvolvePool) Run(ctx context.Context) EvolvePoolStats {
	p.run(ctx, p)
	return p.Stats()
}

// next starts a generation's evaluation.
func (p *EvolvePool) next(int) bool {
	if p.generation >= p.opts.Generations {
		return false
	}
	p.evals = make([]genomeEval, len(p.pop))
	p.cancelled.Store(false)
	return true
}

// work measures shard si's genomes (genome i belongs to shard i mod
// Shards) through the oracles. Results are positional; a cancelled
// context leaves the generation incomplete.
func (p *EvolvePool) work(ctx context.Context, si int) {
	for i := si; i < len(p.pop); i += p.opts.Shards {
		if p.evalHook != nil {
			p.evalHook(p.generation, i)
		}
		if ctx.Err() != nil {
			p.cancelled.Store(true)
			return
		}
		p.evals[i] = p.evalGenome(p.pop[i])
	}
}

// merge folds a complete generation into fitness and breeds the next.
func (p *EvolvePool) merge() bool {
	if p.cancelled.Load() {
		return false
	}
	fits := p.barrier(p.evals)
	p.pop = evolve.NextGeneration(p.pop, fits, p.generation, p.opts.evolveOpts())
	p.generation++
	p.evals = nil
	return true
}

// evalGenome runs one genome through the k-way compile (cached) and,
// when universally accepted, the runtime oracle on every input.
func (p *EvolvePool) evalGenome(g *evolve.Genome) genomeEval {
	var ge genomeEval
	comp, suite, co, ok := p.assemble(g.Src)
	if !ok {
		ge.eval.FrontendReject = true
		return ge
	}
	ge.eval.ImplBits = make([]compiler.PassBits, len(comp.Results))
	for i := range comp.Results {
		ge.eval.ImplBits[i] = comp.Results[i].PassBits
	}
	if suite == nil {
		ge.co = co
		return ge
	}
	ge.eval.Classes = 1
	for _, in := range p.inputs {
		o := suite.Run(in)
		if o == nil {
			continue
		}
		if c := distinctHashes(o.Hashes); c > ge.eval.Classes {
			ge.eval.Classes = c
		}
		if o.Diverged {
			ge.outcomes = append(ge.outcomes, o)
		}
	}
	return ge
}

// distinctHashes counts output-checksum partition classes.
func distinctHashes(hs []uint64) int {
	n := 0
	for i, h := range hs {
		fresh := true
		for j := 0; j < i; j++ {
			if hs[j] == h {
				fresh = false
				break
			}
		}
		if fresh {
			n++
		}
	}
	return n
}

// barrier folds the generation's raw measurements into the global
// bucket store, cumulative coverage, and fitness — single-threaded,
// in genome-index order, so the result is independent of how
// evaluation was sharded.
func (p *EvolvePool) barrier(evals []genomeEval) []float64 {
	cumStart := make([]compiler.PassBits, len(p.cum))
	copy(cumStart, p.cum)
	fits := make([]float64, len(evals))
	var sum float64
	best := 0.0
	for i := range evals {
		ge := &evals[i]
		p.programs++
		if ge.eval.FrontendReject {
			p.frontendRejects++
		}
		if ge.co != nil {
			if b, fresh := p.buckets.AddCompile(ge.co); b != nil {
				p.findings++
				ge.eval.Findings++
				if fresh {
					ge.eval.NewBuckets++
				}
			} else {
				p.frontendRejects++ // uniform reject: not a finding
			}
		}
		for _, o := range ge.outcomes {
			_, fresh := p.buckets.Add(o)
			p.findings++
			ge.eval.Findings++
			if fresh {
				ge.eval.NewBuckets++
			}
		}
		for k, b := range ge.eval.ImplBits {
			ge.eval.NewBits += bits.OnesCount32(uint32(b &^ cumStart[k]))
			p.cum[k] |= b
		}
		fits[i] = evolve.Fitness(p.pop[i], ge.eval, p.opts.evolveOpts())
		sum += fits[i]
		if i == 0 || fits[i] > best {
			best = fits[i]
		}
	}
	p.lastBest = best
	if len(evals) > 0 {
		p.lastMean = sum / float64(len(evals))
	}
	return fits
}

// passCoverage counts distinct (implementation, pass) pairs fired.
func (p *EvolvePool) passCoverage() int {
	n := 0
	for _, b := range p.cum {
		n += b.Count()
	}
	return n
}

// exportState builds the durable snapshot: the population,
// generation, cumulative coverage, counters, and pool buckets in full.
func (p *EvolvePool) exportState() *checkpoint.State {
	st := p.newState(p.programs)
	es := &checkpoint.EvolveCampaignState{
		Generation:      p.generation,
		CumBits:         make([]uint32, len(p.cum)),
		Programs:        p.programs,
		FrontendRejects: p.frontendRejects,
		Findings:        p.findings,
		BestFitness:     p.lastBest,
		MeanFitness:     p.lastMean,
	}
	for i, b := range p.cum {
		es.CumBits[i] = uint32(b)
	}
	for _, g := range p.pop {
		es.Genomes = append(es.Genomes, *g)
	}
	st.Evolve = es
	return st
}

// restore rebuilds pool state from a loaded snapshot.
func (p *EvolvePool) restore(st *checkpoint.State) error {
	es := st.Evolve
	if es == nil {
		return fmt.Errorf("checkpoint does not hold an evolutionary campaign")
	}
	if len(es.Genomes) != p.opts.Pop {
		return fmt.Errorf("checkpoint population %d != %d", len(es.Genomes), p.opts.Pop)
	}
	if es.Generation < 0 || es.Generation > p.opts.Generations {
		return fmt.Errorf("checkpoint generation %d out of range", es.Generation)
	}
	if len(es.CumBits) != len(p.cfgs) {
		return fmt.Errorf("checkpoint has %d coverage maps, %d implementations", len(es.CumBits), len(p.cfgs))
	}
	p.generation = es.Generation
	p.pop = p.pop[:0]
	for i := range es.Genomes {
		g := es.Genomes[i]
		p.pop = append(p.pop, &g)
	}
	for i, b := range es.CumBits {
		p.cum[i] = compiler.PassBits(b)
	}
	p.programs = es.Programs
	p.frontendRejects = es.FrontendRejects
	p.findings = es.Findings
	p.lastBest = es.BestFitness
	p.lastMean = es.MeanFitness
	p.buckets = triage.RestoreBucketStore(st.Buckets, st.BucketTotal)
	return nil
}

// snapshot aggregates the campaign into a telemetry record. Execs
// counts genome evaluations (each is one k-way compile).
func (p *EvolvePool) snapshot() telemetry.Snapshot {
	st := p.Stats()
	return telemetry.Snapshot{Programs: st.Programs, Execs: st.Programs, UniqueBuckets: st.UniqueBuckets,
		CompileDivergences: st.CompileDivergences, ICEs: st.ICEs, DiagMismatches: st.DiagMismatches,
		Generation: st.Generation, BestFitness: st.BestFitness, MeanFitness: st.MeanFitness, PassCoverage: st.PassCoverage}
}

// Stats summarizes the campaign so far.
func (p *EvolvePool) Stats() EvolvePoolStats {
	st := EvolvePoolStats{
		Shards:              p.opts.Shards,
		Generation:          p.generation,
		Generations:         p.opts.Generations,
		Pop:                 p.opts.Pop,
		Programs:            p.programs,
		FrontendRejects:     p.frontendRejects,
		Findings:            p.findings,
		UniqueBuckets:       p.buckets.Len(),
		PassCoverage:        p.passCoverage(),
		BestFitness:         p.lastBest,
		MeanFitness:         p.lastMean,
		PopulationSignature: evolve.Signature(p.pop),
		ShardErrors:         p.shardErrors(),
	}
	st.CompileDivergences, st.ICEs, st.DiagMismatches, st.RuntimeBuckets = p.kinds()
	return st
}

// PassCoverageBits returns the cumulative per-implementation
// fired-rewrite bitmaps (suite order) — the coverage the campaign has
// reached so far.
func (p *EvolvePool) PassCoverageBits() []compiler.PassBits {
	return append([]compiler.PassBits(nil), p.cum...)
}
