package difffuzz

// The sharded campaign orchestrator: the AFL++ -M/-S topology the
// paper's evaluation used on its 64-core server (§4, Tables 5-6),
// reproduced as a pool of N in-process fuzzer shards. Shard 0 is the
// main instance (deterministic stage enabled, like -M); secondaries
// run havoc-only (like -S). Each shard owns its fuzzer, its B_fuzz
// machine, its CompDiff suite, and a shard-local DiffStore, so the
// shards never contend mid-epoch and a fixed FuzzSeed yields the same
// findings regardless of goroutine scheduling.
//
// Shards meet at synchronization barriers every SyncEvery executions.
// A barrier, run single-threaded in shard-index order, does what
// AFL's periodic queue-directory scans do: it merges each shard's new
// discrepancies into the shared mutex-guarded DiffStore, recounts the
// shared totals, and cross-pollinates both the diff-triggering inputs
// and the coverage-fresh queue entries into every sibling shard.
// Because barriers are the only cross-shard channel, the set of
// discrepancy signatures a pool finds is a deterministic function of
// (source, seeds, options) — discovery *order* inside an epoch is the
// only thing scheduling can vary, and the shared store absorbs in
// shard order, so even that is stable.

import (
	"context"
	"fmt"
	"log"
	"sort"
	"sync/atomic"

	"compdiff/internal/core"
	"compdiff/internal/fuzz"
	"compdiff/internal/telemetry"
	"compdiff/internal/triage"
)

// Pool runs N campaign shards over one target.
type Pool struct {
	// driver owns the barrier loop, shard health, the pool-wide triage
	// store (shard-local bucket stores merge into it at barriers, so
	// two shards hitting the same underlying bug yield exactly one
	// pool-wide bucket), checkpointing and the plot recorder.
	driver

	opts   Options
	shards []*shard
	store  *core.DiffStore // shared; shard stores merge into it at barriers

	// statShards / statCrashes are barrier-consistent copies of the
	// per-shard fuzzer stats and the content-distinct crash count,
	// guarded by the driver's mu. Shard fuzzers are
	// goroutine-confined, so a live Stats call must not touch them
	// mid-epoch; these caches are refreshed at every synchronization
	// barrier (and at construction/restore), which is also the only
	// moment the numbers are mutually consistent.
	statShards  []fuzz.Stats
	statCrashes int

	// epochHook, when set, runs at the start of every shard epoch
	// inside the panic-recovery scope. Tests use it to wedge a shard.
	epochHook func(shardIndex int)

	// chunk, left and step are the current Run call's barrier interval,
	// remaining per-shard budget, and current epoch length.
	chunk, left, step int64

	// spentTotal accumulates the per-shard budget across Run calls
	// (restored on resume, so it spans process lifetimes). Atomic so a
	// concurrent Stats reader sees a coherent value mid-campaign.
	spentTotal atomic.Int64
	// persistErrs counts shared-store persistence failures observed at
	// barriers. Atomic: the control plane reads stats while the
	// campaign runs, and the shard counters it is summed with are
	// already atomics. persistLogged keeps the log to one line per
	// campaign.
	persistErrs   atomic.Int64
	persistLogged bool
}

// shard is one fuzzer instance plus its synchronization bookkeeping.
type shard struct {
	c *Campaign

	diffsSynced   int             // shard-local store entries already merged
	bucketsSynced int             // shard-local buckets already merged
	queueSeen     map[uint64]bool // queue entry hashes already cross-pollinated
}

// PoolStats summarizes a pool run.
type PoolStats struct {
	Shards int
	// Execs is the total number of B_fuzz executions across shards.
	Execs int64
	// DiffExecs is the total spent on the CompDiff binaries.
	DiffExecs int64
	// UniqueDiffs and TotalDiffInputs mirror the shared store.
	UniqueDiffs     int
	TotalDiffInputs int
	// UniqueBuckets is the pool-wide count of fingerprint-deduplicated
	// findings — the triage layer's view of UniqueDiffs.
	UniqueBuckets int
	// CompileDivergences, ICEs, and DiagMismatches break UniqueBuckets
	// down by compile-stage finding kind. All zero in input-fuzzing
	// pools, whose findings are runtime-kind by construction; the
	// compile-oracle pool shares this stats shape.
	CompileDivergences int
	ICEs               int
	DiagMismatches     int
	// UniqueCrashes counts content-distinct B_fuzz crashes pool-wide.
	UniqueCrashes int
	// ShardStats holds each shard's fuzzer statistics.
	ShardStats []fuzz.Stats
	// ShardErrors has one entry per shard; non-nil marks a shard that
	// panicked and was retired. The campaign itself keeps running.
	ShardErrors []error
	// PersistErrors counts DiffStore persistence failures (shared store
	// and shards). Non-zero means the campaign completed but DiffDir is
	// missing evidence files.
	PersistErrors int64
	// SpentExecs is the cumulative per-shard budget across Run calls,
	// including runs before a resume.
	SpentExecs int64
}

// NewPool parses and checks src once, then builds opts.Shards
// campaign shards with AFL -M/-S roles and ShardSeed-derived RNG
// seeds. Bug-triggering inputs persist (when opts.DiffDir is set)
// only through the shared store, so shards never contend on files.
func NewPool(src string, seeds [][]byte, opts Options) (*Pool, error) {
	info, err := core.CheckSource(src)
	if err != nil {
		return nil, err
	}
	n := max(opts.Shards, 1)
	p := &Pool{opts: opts, store: core.NewDiffStore(opts.DiffDir)}
	err = p.open(driverConfig{
		shards:          n,
		shardName:       "shard",
		checkpointDir:   opts.CheckpointDir,
		checkpointEvery: opts.CheckpointEvery,
		optionsHash:     CampaignHash(src, seeds, opts),
		resume:          opts.resume,
		stats:           opts.statsEnabled(),
		statsDir:        opts.StatsDir,
	}, func() error {
		for si := 0; si < n; si++ {
			sopts := opts
			sopts.FuzzSeed = ShardSeed(opts.FuzzSeed, si)
			sopts.DiffDir = "" // shard-local stores stay in memory
			if opts.statsEnabled() {
				// Shards keep their counters but the pool owns the snapshot
				// series and the plot file.
				sopts.Stats = true
				sopts.StatsDir = ""
				sopts.StatsEvery = 0
				sopts.poolShard = true
			}
			if si > 0 {
				// Secondaries skip the deterministic stage, AFL -S style:
				// systematic shallow exploration is the main's job.
				sopts.SkipDeterministic = true
			}
			c, err := NewChecked(info, seeds, sopts)
			if err != nil {
				return fmt.Errorf("difffuzz: shard %d: %w", si, err)
			}
			p.shards = append(p.shards, &shard{c: c, queueSeen: map[uint64]bool{}})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.refreshStatCache()
	return p, nil
}

// refreshStatCache recomputes the barrier-consistent shard-stat and
// crash-set caches that a concurrent Stats reader consumes. Called
// only when no shard goroutine is running: at construction, at every
// synchronization barrier, and after a checkpoint restore.
func (p *Pool) refreshStatCache() {
	stats := make([]fuzz.Stats, len(p.shards))
	for si, s := range p.shards {
		stats[si] = s.c.Stats()
	}
	crashes := len(p.Crashes())
	p.mu.Lock()
	p.statShards, p.statCrashes = stats, crashes
	p.mu.Unlock()
}

// ShardSeed derives shard si's fuzzer RNG seed from the base seed.
// Shard 0 keeps the base seed verbatim, so a single-shard pool is
// byte-identical to a plain Campaign; the rest get splitmix64-mixed
// values, distinct even for adjacent bases.
func ShardSeed(base int64, si int) int64 {
	if si == 0 {
		return base
	}
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(si)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Run fuzzes every live shard for budget executions (per shard),
// pausing at synchronization barriers. Cancellation is checked at
// every barrier: on ctx.Done the current epoch finishes (epochs are
// bounded by SyncEvery, and every VM run is step-limited, so a shard
// cannot wedge an epoch open), findings so far are merged, and Run
// returns. A shard that panics is retired with its error recorded;
// the remaining shards keep fuzzing.
func (p *Pool) Run(ctx context.Context, budget int64) PoolStats {
	p.chunk = p.opts.SyncEvery
	if p.chunk <= 0 {
		p.chunk = budget / 8
	}
	if len(p.shards) == 1 && p.saver == nil {
		// A single shard needs no barriers, so the whole budget runs in
		// one chunk — keeping Shards=1 byte-identical to a plain
		// Campaign. With checkpointing on, barriers are the snapshot
		// points, so the shard chunks like a multi-shard pool; fresh
		// and resumed runs then share the same chunking, which is what
		// makes resume execution-equivalent.
		p.chunk = budget
	}
	if p.chunk < 1 {
		p.chunk = budget
	}
	p.left = budget
	p.run(ctx, p)
	return p.Stats()
}

// next sizes the next epoch: a full chunk, or what is left of the
// budget.
func (p *Pool) next(int) bool {
	p.step = min(p.chunk, p.left)
	return p.left > 0
}

// work fuzzes one shard for the epoch.
func (p *Pool) work(_ context.Context, si int) {
	if p.epochHook != nil {
		p.epochHook(si)
	}
	p.shards[si].c.Run(p.step)
}

// merge books the epoch's budget and runs the barrier body.
func (p *Pool) merge() bool {
	p.left -= p.step
	p.spentTotal.Add(p.step)
	p.synchronize()
	return true
}

// afterBarrier runs last at every barrier, after the checkpoint: a
// pool whose shards are all retired stops instead of spinning through
// empty epochs. The check sits here, not in next, so a resumed pool
// with every shard retired still books one empty barrier, as the
// spent-budget accounting under a cumulative budget expects.
func (p *Pool) afterBarrier() bool { return p.live() > 0 }

// snapshot aggregates the shard counters into one pool-wide progress
// record. Called only between epochs (barrier or after Run), when no
// shard goroutine is running.
func (p *Pool) snapshot() telemetry.Snapshot {
	var s telemetry.Snapshot
	var classes [telemetry.NumClasses]int64
	plateau := int64(-1)
	for si, sh := range p.shards {
		m := sh.c.metrics
		st := sh.c.fuzzer.Stats()
		s.Execs += m.Execs.Load()
		s.DiffExecs += m.DiffExecs.Load()
		for k, n := range m.Classes.Snapshot() {
			classes[k] += n
		}
		s.Queue += st.Seeds
		age := st.Execs - st.LastNewPath
		if !p.dead[si] && (plateau < 0 || age < plateau) {
			plateau = age
		}
		role := "main"
		if si > 0 {
			role = "secondary"
		}
		s.Shards = append(s.Shards, telemetry.ShardSnapshot{
			Shard:         si,
			Role:          role,
			Execs:         m.Execs.Load(),
			Queue:         st.Seeds,
			UniqueDiffs:   sh.c.diffs.Len(),
			UniqueBuckets: sh.c.buckets.Len(),
			PlateauExecs:  age,
			Retired:       p.dead[si],
		})
	}
	s.SetClasses(classes)
	s.UniqueDiffs = p.store.Len()
	s.TotalDiffInputs = p.store.Total()
	s.UniqueBuckets = p.buckets.Len()
	s.UniqueCrashes = len(p.Crashes())
	s.PersistErrors = p.persistErrors()
	s.SpentExecs = p.spentTotal.Load()
	if plateau > 0 {
		s.PlateauExecs = plateau
	}
	return s
}

// persistErrors totals persistence failures across the shared store
// and the shards. Every term is atomic, so this is safe mid-epoch.
func (p *Pool) persistErrors() int64 {
	n := p.persistErrs.Load()
	for _, s := range p.shards {
		n += atomic.LoadInt64(&s.c.persistErrs)
	}
	return n
}

// synchronize is the barrier body. It runs single-threaded (all
// shard goroutines have joined), in shard-index order, which keeps
// the shared store's discovery order deterministic.
func (p *Pool) synchronize() {
	// 1. Merge each shard's new discrepancies into the shared store
	// and remember the diff-triggering inputs that were new pool-wide.
	var freshInputs [][]byte
	totals := map[uint64]int{}
	for _, s := range p.shards {
		delta := s.c.diffs.Since(s.diffsSynced)
		s.diffsSynced += len(delta)
		// A persistence error must not stop the campaign (the
		// in-memory merge always completes), but dropping it on the
		// floor hid incomplete DiffDir evidence from every report:
		// count it and log the first occurrence.
		fresh, err := p.store.Absorb(delta)
		if err != nil {
			p.persistErrs.Add(1)
			if !p.persistLogged {
				log.Printf("difffuzz: diff persistence failed (campaign continues, on-disk evidence incomplete): %v", err)
				p.persistLogged = true
			}
		}
		for _, d := range fresh {
			freshInputs = append(freshInputs, d.Outcome.Input)
		}
		// 2. Recount: the shared store's per-signature counts become
		// the exact sum over shard-local stores.
		for sig, c := range s.c.diffs.Counts() {
			totals[sig] += c
		}
	}
	p.store.Recount(totals)

	// 2b. Same merge-then-recount for the triage buckets.
	p.mergeBuckets(len(p.shards), func(i int) (*triage.BucketStore, *int) {
		return p.shards[i].c.buckets, &p.shards[i].bucketsSynced
	})

	// 3. Cross-pollinate, AFL -M/-S style: every sibling imports the
	// coverage-fresh queue entries and new diff inputs it has not
	// seen. ForceSeed content-deduplicates on the receiving side.
	for _, s := range p.shards {
		var newSeeds [][]byte
		for _, q := range s.c.fuzzer.Queue() {
			if !s.queueSeen[q.Hash] {
				s.queueSeen[q.Hash] = true
				newSeeds = append(newSeeds, q.Data)
			}
		}
		for oi, other := range p.shards {
			if other == s || p.dead[oi] {
				continue
			}
			for _, data := range newSeeds {
				other.c.fuzzer.ForceSeed(data)
			}
		}
	}
	for si, s := range p.shards {
		if p.dead[si] {
			continue
		}
		for _, data := range freshInputs {
			s.c.fuzzer.ForceSeed(data)
		}
	}

	// 4. Refresh the barrier-consistent caches a concurrent Stats
	// reader (the control plane) consumes while the next epoch runs.
	p.refreshStatCache()
}

// Stats aggregates pool-wide statistics. Safe to call concurrently
// with Run — the control plane polls it while a campaign executes.
// Per-shard fuzzer numbers and the crash count are barrier-consistent
// (refreshed at every synchronization barrier, so a mid-epoch read
// reports the last barrier's state); the shared stores and the atomic
// counters are read live. After Run returns the last barrier has run,
// so every field is exact.
func (p *Pool) Stats() PoolStats {
	st := PoolStats{Shards: len(p.shards)}
	p.mu.Lock()
	st.ShardStats = append([]fuzz.Stats(nil), p.statShards...)
	st.UniqueCrashes = p.statCrashes
	st.ShardErrors = append([]error(nil), p.errs...)
	p.mu.Unlock()
	for _, fs := range st.ShardStats {
		st.Execs += fs.Execs
	}
	for _, s := range p.shards {
		st.DiffExecs += atomic.LoadInt64(&s.c.DiffExecs)
	}
	st.UniqueDiffs = p.store.Len()
	st.TotalDiffInputs = p.store.Total()
	st.UniqueBuckets = p.buckets.Len()
	st.CompileDivergences, st.ICEs, st.DiagMismatches, _ = p.kinds()
	st.PersistErrors = p.persistErrors()
	st.SpentExecs = p.spentTotal.Load()
	return st
}

// Diffs returns the pool-wide unique discrepancies (shared store,
// merge order).
func (p *Pool) Diffs() []*core.StoredDiff { return p.store.Unique() }

// TotalDiffInputs is the pool-wide count of diverging inputs seen.
func (p *Pool) TotalDiffInputs() int { return p.store.Total() }

// Signatures returns the sorted discrepancy-signature set — the
// stable, order-independent fingerprint of a campaign's findings that
// the determinism tests compare.
func (p *Pool) Signatures() []uint64 {
	diffs := p.store.Unique()
	sigs := make([]uint64, 0, len(diffs))
	for _, d := range diffs {
		sigs = append(sigs, d.Signature)
	}
	sort.Slice(sigs, func(i, j int) bool { return sigs[i] < sigs[j] })
	return sigs
}

// Crashes returns every shard's B_fuzz crashes, content-deduplicated,
// in deterministic (shard, fuzzer) order.
func (p *Pool) Crashes() []*fuzz.Crash {
	seen := map[string]bool{}
	var out []*fuzz.Crash
	for _, s := range p.shards {
		for _, cr := range s.c.Crashes() {
			if !seen[string(cr.Input)] {
				seen[string(cr.Input)] = true
				out = append(out, cr)
			}
		}
	}
	return out
}

// ImplNames lists the CompDiff implementation names (identical across
// shards).
func (p *Pool) ImplNames() []string { return p.shards[0].c.ImplNames() }

// ShardCampaign exposes shard si's campaign (read-only use between
// Run calls; campaigns are not concurrency-safe).
func (p *Pool) ShardCampaign(si int) *Campaign { return p.shards[si].c }

// ImplSummaries merges the per-implementation telemetry across shards
// (shards share the implementation set, so position identifies the
// implementation). Nil when stats are disabled.
func (p *Pool) ImplSummaries() []telemetry.ImplSummary {
	var out []telemetry.ImplSummary
	for _, s := range p.shards {
		if s.c.metrics == nil {
			return nil
		}
		out = telemetry.MergeImplSummaries(out, s.c.metrics.Suite.Summaries())
	}
	return out
}
