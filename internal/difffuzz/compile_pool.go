package difffuzz

// CompilePool drives the compile-stage differential oracle over a
// *program* corpus, the way Pool drives the runtime oracle over an
// input corpus. Every program is compiled under all k implementations
// behind recover boundaries; accept/reject splits, ICEs, and
// diagnostic mismatches land in triage buckets (a crashing compiler is
// a finding, never a dead shard), and programs every implementation
// accepts are additionally run through the runtime differential on a
// configurable input set. Shards partition the corpus round-robin by
// index, merge shard-local buckets at barriers in shard order
// (merge-then-recount, like Pool), and checkpoint a durable corpus
// cursor so kill-9/resume reproduces an uninterrupted run's buckets
// exactly.

import (
	"context"
	"fmt"

	"compdiff/internal/checkpoint"
	"compdiff/internal/compiler"
	"compdiff/internal/core"
	"compdiff/internal/hash"
	"compdiff/internal/progcache"
	"compdiff/internal/telemetry"
	"compdiff/internal/triage"
)

// CompilePoolOptions configures a compile-oracle campaign.
type CompilePoolOptions struct {
	// Configs are the implementations to cross-check. Defaults to the
	// paper's ten.
	Configs []compiler.Config
	// Shards is the number of worker shards (default 1). Program i is
	// owned by shard i mod Shards, independent of progress, so the
	// assignment is stable across resume.
	Shards int
	// SyncEvery is the number of corpus programs processed between
	// barriers, across all shards. Zero processes the whole corpus in
	// one epoch. Barriers are the merge and checkpoint points.
	SyncEvery int
	// StepLimit bounds each runtime cross-check execution.
	StepLimit int64
	// Parallelism is the per-program compile and suite parallelism.
	// Scheduling only — results are positional and deterministic.
	Parallelism int
	// RuntimeInputs are run differentially on every program all
	// implementations accept, so a program corpus feeds the runtime
	// oracle too. Default: just the empty input.
	RuntimeInputs [][]byte
	// StatsDir, when set, streams one telemetry snapshot per barrier
	// to <dir>/plot.jsonl.
	StatsDir string
	// CheckpointDir enables durable snapshots; CheckpointEvery is the
	// number of barriers between them (default 1).
	CheckpointDir   string
	CheckpointEvery int64

	// resume marks pools built by ResumeCompilePool, which may (must)
	// find an existing checkpoint in CheckpointDir.
	resume bool
}

// configsOrDefault is cfgs, or the paper's ten implementations when
// none are given.
func configsOrDefault(cfgs []compiler.Config) []compiler.Config {
	if len(cfgs) > 0 {
		return cfgs
	}
	return compiler.DefaultSet()
}

// inputsOrEmpty is inputs, or just the empty input when none are given.
func inputsOrEmpty(inputs [][]byte) [][]byte {
	if len(inputs) > 0 {
		return inputs
	}
	return [][]byte{nil}
}

// oracle is the program-level differential oracle the compile and
// evolve pools share: a k-way compile through the compiled-program
// cache, then a fresh suite for the runtime cross-check when every
// implementation accepts. Shards share compiled programs read-only,
// never execution state: every assemble builds new machines.
type oracle struct {
	cfgs   []compiler.Config
	cache  *progcache.Cache
	copts  core.Options
	inputs [][]byte // the runtime cross-check inputs
}

func newOracle(cfgs []compiler.Config, stepLimit int64, parallelism int, inputs [][]byte) (oracle, error) {
	cfgs = configsOrDefault(cfgs)
	if len(cfgs) < 2 {
		return oracle{}, fmt.Errorf("difffuzz: need at least 2 compiler implementations, got %d", len(cfgs))
	}
	return oracle{
		cfgs:   cfgs,
		cache:  progcache.New(progcache.DefaultBudget),
		copts:  core.Options{StepLimit: stepLimit, Parallelism: parallelism},
		inputs: inputsOrEmpty(inputs),
	}, nil
}

// assemble compiles src, serving revisits from the cache (a record is
// a pure function of the source, so hits and misses produce identical
// outcomes), and builds its differential suite. ok is false for a
// uniform front-end reject. Otherwise suite is nil exactly when some
// implementation rejected or crashed, and co says how.
func (o *oracle) assemble(src string) (comp *progcache.Compiled, suite *core.Suite, co *core.CompileOutcome, ok bool) {
	comp = o.cache.Get(src, o.cfgs, o.copts.Parallelism)
	if comp.FrontendErr != nil {
		return comp, nil, nil, false
	}
	suite, co, err := core.AssembleDifferential(comp.Results, o.cfgs, o.copts)
	return comp, suite, co, err == nil
}

// ImplNames returns the implementation names, suite order.
func (o *oracle) ImplNames() []string {
	names := make([]string, len(o.cfgs))
	for i, cfg := range o.cfgs {
		names[i] = cfg.Name()
	}
	return names
}

// CacheStats exposes the compiled-program cache counters: hits are
// revisits served without recompiling. Deliberately not part of the
// pool stats — the counters are process-local (a resumed pool starts
// cold), while the stats structs are the cross-resume determinism
// fingerprints.
func (o *oracle) CacheStats() progcache.Stats { return o.cache.Stats() }

// CompilePoolStats is the campaign summary.
type CompilePoolStats struct {
	Shards int
	// Programs is the number of corpus programs processed (a dead
	// shard's unprocessed programs are not counted).
	Programs int64
	// Accepted counts programs every implementation compiled.
	Accepted int64
	// FrontendRejects counts programs rejected uniformly — parse and
	// sema failures plus identical-diagnostic rejects. Not findings.
	FrontendRejects int64
	// Findings counts finding-producing programs before dedup
	// (compile-stage findings plus runtime divergences).
	Findings int64
	// UniqueBuckets is the deduplicated finding count, broken down by
	// kind below (RuntimeBuckets counts the runtime-oracle remainder).
	UniqueBuckets      int
	CompileDivergences int
	ICEs               int
	DiagMismatches     int
	RuntimeBuckets     int
	// Cursor is the number of corpus programs consumed (processed or
	// skipped by a retired shard); CorpusLen the corpus size.
	Cursor    int
	CorpusLen int
	// ShardErrors has one entry per shard; non-nil marks a retired
	// shard. ICEs never retire a shard — only a harness bug does.
	ShardErrors []error
}

// compileShard is one worker's slice of the campaign. Its counters
// and store are written only by the shard goroutine during an epoch
// and read only at barriers.
type compileShard struct {
	buckets       *triage.BucketStore
	bucketsSynced int

	programs        int64
	accepted        int64
	frontendRejects int64
	findings        int64
}

// CompilePool is the sharded compile-oracle campaign.
type CompilePool struct {
	driver
	oracle

	opts   CompilePoolOptions
	corpus []string
	cursor int
	// chunk is the barrier interval; start and end bound the current
	// epoch's corpus slice.
	chunk, start, end int

	shards []*compileShard

	// epochHook runs at the top of each epoch (test seam, like Pool's).
	epochHook func(epoch int)
}

// CompileCampaignHash fingerprints everything that determines a
// compile-oracle campaign's findings: implementations, sharding,
// barrier cadence, runtime cross-check inputs, and the corpus itself.
// Parallelism and the observability knobs are excluded, as in
// CampaignHash.
func CompileCampaignHash(corpus []string, opts CompilePoolOptions) uint64 {
	d := hash.New128(0xcc01)
	for _, cfg := range configsOrDefault(opts.Configs) {
		fmt.Fprintf(d, "cfg:%s\n", cfg.Name())
	}
	fmt.Fprintf(d, "step:%d shards:%d sync:%d\n", opts.StepLimit, max(opts.Shards, 1), opts.SyncEvery)
	for _, in := range inputsOrEmpty(opts.RuntimeInputs) {
		fmt.Fprintf(d, "input:%d:", len(in))
		d.Write(in)
	}
	for _, src := range corpus {
		fmt.Fprintf(d, "prog:%d:%s", len(src), src)
	}
	h1, _ := d.Sum128()
	return h1
}

// NewCompilePool builds a compile-oracle campaign over corpus.
func NewCompilePool(corpus []string, opts CompilePoolOptions) (*CompilePool, error) {
	if len(corpus) == 0 {
		return nil, fmt.Errorf("difffuzz: compile pool needs a non-empty program corpus")
	}
	orc, err := newOracle(opts.Configs, opts.StepLimit, opts.Parallelism, opts.RuntimeInputs)
	if err != nil {
		return nil, err
	}
	opts.Shards = max(opts.Shards, 1)
	p := &CompilePool{oracle: orc, opts: opts, corpus: append([]string(nil), corpus...)}
	for i := 0; i < opts.Shards; i++ {
		p.shards = append(p.shards, &compileShard{buckets: triage.NewBucketStore()})
	}
	err = p.open(driverConfig{
		shards:          opts.Shards,
		shardName:       "compile shard",
		checkpointDir:   opts.CheckpointDir,
		checkpointEvery: opts.CheckpointEvery,
		optionsHash:     CompileCampaignHash(corpus, opts),
		resume:          opts.resume,
		stats:           opts.StatsDir != "",
		statsDir:        opts.StatsDir,
	}, nil)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// ResumeCompilePool rebuilds a compile pool from the checkpoint in
// opts.CheckpointDir. Error classification matches ResumePool:
// ErrNoCheckpoint, ErrMismatch, ErrCorrupt.
func ResumeCompilePool(corpus []string, opts CompilePoolOptions) (*CompilePool, error) {
	return resumeFrom(opts.CheckpointDir, CompileCampaignHash(corpus, opts), "corpus and campaign options", func() (*CompilePool, error) {
		opts.resume = true
		return NewCompilePool(corpus, opts)
	})
}

// Run processes the corpus from the current cursor to the end (or
// until ctx is cancelled), merging and checkpointing at barriers.
// Safe to call again after cancellation to finish the remainder.
func (p *CompilePool) Run(ctx context.Context) CompilePoolStats {
	p.chunk = p.opts.SyncEvery
	if p.chunk <= 0 {
		p.chunk = len(p.corpus)
	}
	p.run(ctx, p)
	return p.Stats()
}

// next runs the epoch hook and selects the next corpus slice.
func (p *CompilePool) next(epoch int) bool {
	if p.cursor >= len(p.corpus) {
		return false
	}
	if p.epochHook != nil {
		p.epochHook(epoch)
	}
	p.start, p.end = p.cursor, min(p.cursor+p.chunk, len(p.corpus))
	return true
}

// work processes the programs of the epoch's slice that shard si owns.
func (p *CompilePool) work(_ context.Context, si int) {
	for i := p.start; i < p.end; i++ {
		if i%len(p.shards) == si {
			p.processProgram(p.shards[si], p.corpus[i])
		}
	}
}

// merge advances the cursor past the epoch's slice — a retired
// shard's programs included — and merges the shard buckets.
func (p *CompilePool) merge() bool {
	p.cursor = p.end
	p.mergeBuckets(len(p.shards), func(i int) (*triage.BucketStore, *int) {
		return p.shards[i].buckets, &p.shards[i].bucketsSynced
	})
	return true
}

// processProgram feeds one corpus program through the compile oracle
// and, when universally accepted, the runtime oracle.
func (p *CompilePool) processProgram(sh *compileShard, src string) {
	sh.programs++
	_, suite, co, ok := p.assemble(src)
	if !ok {
		sh.frontendRejects++
		return
	}
	if suite == nil {
		// Some implementation rejected or crashed: a finding exactly
		// when the partition or the normalized messages differ.
		if b, _ := sh.buckets.AddCompile(co); b != nil {
			sh.findings++
		} else {
			sh.frontendRejects++
		}
		return
	}
	sh.accepted++
	for _, in := range p.inputs {
		if o := suite.Run(in); o != nil && o.Diverged {
			sh.findings++
			sh.buckets.Add(o)
		}
	}
}

// exportCompileState builds the durable snapshot: pool buckets in
// full, shard buckets as skeletons, and the corpus cursor.
func (p *CompilePool) exportCompileState() *checkpoint.State {
	st := p.newState(int64(p.cursor))
	cs := &checkpoint.CompileCampaignState{Cursor: p.cursor, CorpusLen: len(p.corpus)}
	for si, sh := range p.shards {
		snaps, total := sh.buckets.Export()
		for i := range snaps {
			snaps[i].Outcome = nil // skeleton: keys, counts, signatures
			snaps[i].Compile = nil
		}
		cs.Shards = append(cs.Shards, checkpoint.CompileShardState{
			Index:           si,
			Dead:            p.dead[si],
			Programs:        sh.programs,
			Accepted:        sh.accepted,
			FrontendRejects: sh.frontendRejects,
			Findings:        sh.findings,
			Buckets:         snaps,
			BucketTotal:     total,
		})
	}
	st.Compile = cs
	return st
}

func (p *CompilePool) exportState() *checkpoint.State { return p.exportCompileState() }

// restore rebuilds pool state from a loaded snapshot.
func (p *CompilePool) restore(st *checkpoint.State) error {
	cs := st.Compile
	if cs == nil {
		return fmt.Errorf("checkpoint holds an input-fuzzing campaign, not a compile-oracle one")
	}
	if cs.CorpusLen != len(p.corpus) {
		return fmt.Errorf("checkpoint corpus length %d != %d", cs.CorpusLen, len(p.corpus))
	}
	if len(cs.Shards) != len(p.shards) {
		return fmt.Errorf("checkpoint has %d shards, pool has %d", len(cs.Shards), len(p.shards))
	}
	if cs.Cursor < 0 || cs.Cursor > len(p.corpus) {
		return fmt.Errorf("checkpoint cursor %d out of range", cs.Cursor)
	}
	p.cursor = cs.Cursor
	p.buckets = triage.RestoreBucketStore(st.Buckets, st.BucketTotal)
	for i, ss := range cs.Shards {
		sh := p.shards[i]
		sh.buckets = triage.RestoreBucketStore(ss.Buckets, ss.BucketTotal)
		sh.bucketsSynced = len(ss.Buckets)
		p.dead[i] = ss.Dead
		sh.programs = ss.Programs
		sh.accepted = ss.Accepted
		sh.frontendRejects = ss.FrontendRejects
		sh.findings = ss.Findings
	}
	return nil
}

// snapshot aggregates shard counters into a telemetry record. Execs
// counts processed programs (each is one k-way compile).
func (p *CompilePool) snapshot() telemetry.Snapshot {
	st := p.Stats()
	return telemetry.Snapshot{Programs: st.Programs, Execs: st.Programs, UniqueBuckets: st.UniqueBuckets,
		CompileDivergences: st.CompileDivergences, ICEs: st.ICEs, DiagMismatches: st.DiagMismatches}
}

// Stats summarizes the campaign so far.
func (p *CompilePool) Stats() CompilePoolStats {
	st := CompilePoolStats{
		Shards:      len(p.shards),
		Cursor:      p.cursor,
		CorpusLen:   len(p.corpus),
		ShardErrors: p.shardErrors(),
	}
	for _, sh := range p.shards {
		st.Programs += sh.programs
		st.Accepted += sh.accepted
		st.FrontendRejects += sh.frontendRejects
		st.Findings += sh.findings
	}
	st.UniqueBuckets = p.buckets.Len()
	st.CompileDivergences, st.ICEs, st.DiagMismatches, st.RuntimeBuckets = p.kinds()
	return st
}
