// Package difffuzz implements CompDiff-AFL++ (paper §3.2, Algorithm
// 1): the AFL++-style fuzzer drives input generation against an
// instrumented binary B_fuzz, and every generated input is
// additionally executed on the k CompDiff binaries, whose outputs are
// cross-checked; diverging inputs land in the diffs/ store. The fuzzer
// core is untouched — CompDiff rides the execution hook — so any other
// fuzzing enhancement (sanitizers on B_fuzz included) composes with it,
// exactly as the paper argues.
package difffuzz

import (
	"fmt"
	"log"
	"sync/atomic"

	"compdiff/internal/compiler"
	"compdiff/internal/core"
	"compdiff/internal/fuzz"
	"compdiff/internal/minic/sema"
	"compdiff/internal/telemetry"
	"compdiff/internal/triage"
	"compdiff/internal/vm"
)

// Options configures a campaign.
type Options struct {
	// Configs are the CompDiff compiler implementations (defaults to
	// the paper's ten).
	Configs []compiler.Config
	// FuzzSeed seeds the fuzzer RNG.
	FuzzSeed int64
	// StepLimit is the per-run budget for every binary.
	StepLimit int64
	// MaxInputLen caps generated inputs.
	MaxInputLen int
	// Sanitizer optionally instruments B_fuzz with a sanitizer, as
	// AFL++ users commonly do; CompDiff composes with it.
	Sanitizer vm.SanMode
	// Normalizer post-processes outputs before comparison (RQ5).
	Normalizer *core.Normalizer
	// DiffDir, when set, persists bug-triggering inputs under
	// DiffDir/diffs/.
	DiffDir string

	// SkipDeterministic disables the fuzzer's deterministic stage
	// (AFL's -d), trading systematic shallow exploration for havoc
	// throughput.
	SkipDeterministic bool

	// DivergenceFeedback adds inputs that trigger *new* discrepancy
	// signatures to the fuzzer's queue even when they contribute no
	// new coverage — the NEZHA-style behavioral-asymmetry feedback the
	// paper proposes as future work (§5). Because CompDiff's binaries
	// share one source, the signature partition is a cheap, stable
	// asymmetry fingerprint.
	DivergenceFeedback bool

	// Parallelism fans each differential cross-check across this many
	// worker goroutines (core.Options.Parallelism). <= 1 keeps the
	// sequential path.
	Parallelism int

	// Shards is the number of parallel fuzzer instances NewPool runs,
	// mirroring AFL++'s -M/-S multi-instance setup: shard 0 is the
	// main (deterministic stage enabled), secondaries run havoc-only,
	// and every shard derives a distinct RNG seed from FuzzSeed.
	// Values <= 1 mean a single shard. Ignored by New.
	Shards int

	// SyncEvery is the per-shard execution count a pool runs between
	// corpus/diff synchronization barriers. Zero picks budget/8. A
	// single-shard pool always runs its whole budget in one chunk,
	// which makes Shards=1 byte-identical to a plain Campaign.
	SyncEvery int64

	// Stats enables the telemetry layer: outcome classification of
	// every generated input, per-implementation latency histograms, and
	// AFL-plot-style progress snapshots. Off by default — the campaign
	// then runs with zero instrumentation on the hot path.
	Stats bool
	// StatsDir, when set (implies Stats), receives plot.jsonl: one JSON
	// snapshot per line, append-only, AFL plot_data style.
	StatsDir string
	// StatsEvery emits a periodic snapshot every N generated inputs
	// (implies Stats). Zero leaves only the per-Run final snapshot (and,
	// for pools, the per-barrier snapshots).
	StatsEvery int64

	// CheckpointDir, when set, makes the pool write a crash-safe
	// campaign snapshot (internal/checkpoint) at its synchronization
	// barriers, so a killed campaign resumes via ResumePool with the
	// findings and determinism of an uninterrupted run; an options hash
	// guards against resuming under different settings. A single-shard
	// pool with checkpointing runs in
	// SyncEvery-sized chunks (it needs barriers to snapshot at), so
	// enable it on the fresh run too when comparing runs bit-for-bit.
	CheckpointDir string
	// CheckpointEvery is the number of synchronization barriers between
	// snapshots; <= 0 means every barrier.
	CheckpointEvery int64

	// poolShard marks a campaign built as a pool shard: it keeps its
	// counters but no recorder — the pool snapshots at barriers, where
	// all shard goroutines have joined.
	poolShard bool
	// resume marks a pool being rebuilt over an existing checkpoint
	// (set only by ResumePool); without it, NewPool refuses a
	// CheckpointDir that already holds one.
	resume bool
}

// statsEnabled reports whether any stats option asks for telemetry.
func (o Options) statsEnabled() bool {
	return o.Stats || o.StatsDir != "" || o.StatsEvery > 0
}

// Campaign is a CompDiff-AFL++ fuzzing session on one target. A
// Campaign is single-goroutine (the pool gives each shard its own);
// only DiffExecs may be read concurrently, via atomic load.
type Campaign struct {
	fuzzer *fuzz.Fuzzer
	suite  *core.Suite
	diffs  *core.DiffStore
	// buckets deduplicates the diverging outcomes by divergence
	// fingerprint (the triage layer). The signature-keyed DiffStore
	// stays authoritative for persistence and DivergenceFeedback;
	// buckets is the reporting view.
	buckets *triage.BucketStore

	// DiffExecs counts executions spent on the CompDiff binaries
	// (k per generated input) — the overhead the paper discusses.
	// Updated atomically so pool-level progress reporting can read it
	// while the shard runs.
	DiffExecs int64

	// persistErrs counts DiffStore persistence failures (disk-full,
	// permission loss). The campaign keeps running on such errors, but
	// they must not vanish: the count surfaces in snapshots, stats, and
	// the CLI summary, and the first occurrence is logged.
	persistErrs int64

	// metrics is nil unless Options ask for stats; every instrumented
	// branch on the hot path is a single nil check.
	metrics *telemetry.CampaignMetrics
	// statsRecorder collects snapshots for a standalone campaign. Pool
	// shards have metrics but no recorder: the pool snapshots at its
	// barriers instead.
	statsRecorder
	statsEvery int64
}

// New builds a campaign for the MiniC source with initial seeds.
func New(src string, seeds [][]byte, opts Options) (*Campaign, error) {
	info, err := core.CheckSource(src)
	if err != nil {
		return nil, err
	}
	return NewChecked(info, seeds, opts)
}

// NewChecked builds a campaign from an already-checked program.
func NewChecked(info *sema.Info, seeds [][]byte, opts Options) (*Campaign, error) {
	cfgs := configsOrDefault(opts.Configs)

	// B_fuzz: the fuzzer-configured binary with coverage
	// instrumentation (and optionally a sanitizer), compiled exactly
	// as in normal AFL++.
	fuzzCfg := compiler.Config{
		Family:     compiler.Clang,
		Opt:        O1ForSan(opts.Sanitizer),
		Instrument: true,
		ASan:       opts.Sanitizer == vm.SanASan,
		Sanitize:   opts.Sanitizer != vm.SanNone,
	}
	bfuzz, err := compiler.Compile(info, fuzzCfg)
	if err != nil {
		return nil, err
	}
	machine := vm.New(bfuzz, vm.Options{
		Coverage:  true,
		StepLimit: opts.StepLimit,
		San:       opts.Sanitizer,
	})

	var metrics *telemetry.CampaignMetrics
	var recorder *telemetry.Recorder
	if opts.statsEnabled() {
		names := make([]string, len(cfgs))
		for i, cfg := range cfgs {
			names[i] = cfg.Name()
		}
		metrics = telemetry.NewCampaignMetrics(names)
		if !opts.poolShard {
			recorder, err = telemetry.NewRecorder(opts.StatsDir)
			if err != nil {
				return nil, fmt.Errorf("difffuzz: stats: %w", err)
			}
		}
	}

	copts := core.Options{
		StepLimit:   opts.StepLimit,
		Normalizer:  opts.Normalizer,
		Parallelism: opts.Parallelism,
	}
	if metrics != nil {
		copts.Metrics = metrics.Suite
	}
	suite, err := core.Build(info, cfgs, copts)
	if err != nil {
		return nil, err
	}

	c := &Campaign{
		suite:         suite,
		diffs:         core.NewDiffStore(opts.DiffDir),
		buckets:       triage.NewBucketStore(),
		metrics:       metrics,
		statsRecorder: statsRecorder{recorder},
		statsEvery:    opts.StatsEvery,
	}
	c.fuzzer = fuzz.New(machine, seeds, fuzz.Options{
		Seed:              opts.FuzzSeed,
		MaxInputLen:       opts.MaxInputLen,
		SkipDeterministic: opts.SkipDeterministic,
		// Algorithm 1, lines 9-12: run every generated input through
		// the CompDiff binaries and save it on output discrepancy.
		OnExec: func(input []byte, res *vm.Result) {
			// Fast path: outputs are checksummed in machine-owned
			// buffers; o.Results is materialized only on divergence,
			// which is exactly when diffs.Add needs the bytes.
			o := c.suite.RunFast(input)
			atomic.AddInt64(&c.DiffExecs, int64(len(c.suite.Impls)))
			if o.Diverged {
				fresh, err := c.diffs.Add(o)
				if err != nil {
					// Persistence failure must not kill the campaign —
					// the in-memory record is kept regardless — but it
					// must not vanish either: the on-disk evidence is now
					// incomplete, so count it and log the first one.
					if atomic.AddInt64(&c.persistErrs, 1) == 1 {
						log.Printf("difffuzz: diff persistence failed (campaign continues, on-disk evidence incomplete): %v", err)
					}
				}
				c.buckets.Add(o)
				// c.fuzzer is nil while the initial corpus is being
				// ingested inside fuzz.New; those seeds are already
				// queued.
				if fresh && opts.DivergenceFeedback && c.fuzzer != nil {
					c.fuzzer.ForceSeed(input)
				}
			}
			if m := c.metrics; m != nil {
				execs := m.Execs.Inc()
				m.DiffExecs.Add(int64(len(c.suite.Impls)))
				// Each generated input lands in exactly one class:
				// divergence dominates, otherwise the input is classed
				// by its B_fuzz result. The per-class counts therefore
				// always sum to Execs.
				cls := core.ClassifyResult(res)
				if o.Diverged {
					cls = telemetry.ClassDiff
				}
				m.Classes.Inc(cls)
				// Periodic snapshot, AFL plot_data style. Skipped while
				// fuzz.New ingests the initial corpus (c.fuzzer nil).
				if c.recorder != nil && c.statsEvery > 0 &&
					execs%c.statsEvery == 0 && c.fuzzer != nil {
					c.recorder.Record(c.snapshot())
				}
			}
		},
	})
	return c, nil
}

// O1ForSan picks the conventional optimization level for a sanitizer
// build (-O1), or -O2 for a plain fuzzing binary.
func O1ForSan(san vm.SanMode) compiler.OptLevel {
	if san != vm.SanNone {
		return compiler.O1
	}
	return compiler.O2
}

// Run fuzzes for the given number of executions on B_fuzz. With stats
// enabled, a final snapshot is recorded when the budget is spent.
func (c *Campaign) Run(budget int64) fuzz.Stats {
	st := c.fuzzer.Run(budget)
	if c.recorder != nil {
		c.recorder.Record(c.snapshot())
	}
	return st
}

// snapshot assembles the campaign's current progress record. Callers
// hold no locks: every source is either atomic or owned by the
// campaign goroutine.
func (c *Campaign) snapshot() telemetry.Snapshot {
	m := c.metrics
	st := c.fuzzer.Stats()
	s := telemetry.Snapshot{
		Execs:           m.Execs.Load(),
		DiffExecs:       m.DiffExecs.Load(),
		Queue:           st.Seeds,
		UniqueDiffs:     c.diffs.Len(),
		TotalDiffInputs: c.diffs.Total(),
		UniqueBuckets:   c.buckets.Len(),
		UniqueCrashes:   st.UniqueCrashes,
		PlateauExecs:    st.Execs - st.LastNewPath,
		PersistErrors:   atomic.LoadInt64(&c.persistErrs),
	}
	s.SetClasses(m.Classes.Snapshot())
	return s
}

// PersistErrors is the number of DiffStore persistence failures so
// far. Non-zero means the campaign ran to completion but dir-backed
// evidence is incomplete.
func (c *Campaign) PersistErrors() int64 {
	return atomic.LoadInt64(&c.persistErrs)
}

// Metrics returns the campaign's live counters, or nil when stats are
// disabled.
func (c *Campaign) Metrics() *telemetry.CampaignMetrics { return c.metrics }

// ImplSummaries returns per-implementation outcome counts and latency
// histograms, or nil when stats are disabled.
func (c *Campaign) ImplSummaries() []telemetry.ImplSummary {
	if c.metrics == nil {
		return nil
	}
	return c.metrics.Suite.Summaries()
}

// Diffs returns the unique discrepancies found so far.
func (c *Campaign) Diffs() []*core.StoredDiff { return c.diffs.Unique() }

// Buckets returns the fingerprint-deduplicated findings in discovery
// order.
func (c *Campaign) Buckets() []*triage.Bucket { return c.buckets.Buckets() }

// BucketStore exposes the campaign's triage store (reporting and
// pool-merge use).
func (c *Campaign) BucketStore() *triage.BucketStore { return c.buckets }

// TotalDiffInputs is the number of diverging inputs seen, pre-dedup.
func (c *Campaign) TotalDiffInputs() int { return c.diffs.Total() }

// Crashes returns B_fuzz crashes (AFL++'s native findings, including
// sanitizer aborts when a sanitizer is enabled).
func (c *Campaign) Crashes() []*fuzz.Crash { return c.fuzzer.Crashes() }

// Stats returns fuzzer statistics.
func (c *Campaign) Stats() fuzz.Stats { return c.fuzzer.Stats() }

// ImplNames lists the CompDiff implementation names.
func (c *Campaign) ImplNames() []string { return c.suite.Names() }
