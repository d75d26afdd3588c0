package main

// The compile-oracle workload: a CompilePool over a seeded draw, with
// replacement, of progen programs plus the three compile goldens. The
// draw pool is small enough to stay resident in the compiled-program
// cache, so about half the draws revisit a program.

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"time"

	"compdiff"
	"compdiff/internal/compiler"
	"compdiff/internal/core"
	"compdiff/internal/progcache"
	"compdiff/internal/progen"
	"compdiff/internal/triage"
)

type compileWorkload struct {
	distinct int64 // progen programs in the draw pool
	draws    int64 // corpus programs drawn per round, before the goldens
}

var compileSpec = compileWorkload{distinct: 140, draws: 200}

// compileResult is the part of a round the replay must reproduce.
type compileResult struct {
	Stats      compdiff.CompileCampaignStats
	BucketKeys []uint64
}

// corpus draws the round's program corpus. generate is progen, timed
// or not; the goldens go in at seeded positions.
func (c compileWorkload) corpus(b *bench, seed int64, generate func(int64) string) []string {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]string, b.scaled(c.distinct, 4))
	for i := range pool {
		pool[i] = generate(seed + int64(i))
	}
	n := int(b.scaled(c.draws, 8))
	corpus := make([]string, 0, n+len(b.goldens))
	for i := 0; i < n; i++ {
		corpus = append(corpus, pool[rng.Intn(len(pool))])
	}
	for _, g := range b.goldens {
		at := rng.Intn(len(corpus) + 1)
		corpus = append(corpus[:at], append([]string{g.src}, corpus[at:]...)...)
	}
	return corpus
}

func (c compileWorkload) round(b *bench, r int) (*round, error) {
	if b.goldens == nil {
		gs, err := compileGoldens()
		if err != nil {
			return nil, err
		}
		b.goldens = gs
	}
	rd := &round{index: r, seed: b.roundSeed(r)}
	t0 := time.Now()
	corpus := c.corpus(b, rd.seed, func(s int64) string { return progen.Generate(s).Src })
	pool, err := compdiff.NewCompileCampaign(corpus, compdiff.CompileCampaignOptions{Shards: 1})
	rd.setup = time.Since(t0)
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	var st compdiff.CompileCampaignStats
	measureRun(rd, func() { st = pool.Run(context.Background()) })

	rd.ops = st.Programs
	rd.buckets = st.UniqueBuckets
	rd.coverage = int(st.Accepted)
	for si, e := range st.ShardErrors {
		if e != nil {
			rd.fail("compile-oracle round %d: shard %d: %v", r, si, e)
		}
	}
	checkGoldens(rd, b.goldens, pool.BucketStore())
	rd.result = compileResult{Stats: st, BucketKeys: pool.BucketKeys()}
	return rd, nil
}

func (c compileWorkload) replay(b *bench, rd *round, tr *tracer) (*replayed, error) {
	main := tr.newTrack()
	t0 := time.Now()
	root := main.begin(mRound, uint32(rd.index))
	corpus := c.corpus(b, rd.seed, func(s int64) string {
		i := main.begin(lProgenGenerate, 0)
		src := progen.Generate(s).Src
		main.end(i)
		return src
	})
	cfgs := compiler.DefaultSet()
	cache := progcache.New(0)
	pooled, local := triage.NewBucketStore(), triage.NewBucketStore()
	st := compdiff.CompileCampaignStats{Shards: 1, Cursor: len(corpus), CorpusLen: len(corpus), ShardErrors: []error{nil}}
	var runs, diverged float64

	// One shard, on its own goroutine as in CompilePool.Run.
	worker := tr.newTrack()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e := worker.begin(mEpoch, 0)
		defer worker.end(e)
		for idx, src := range corpus {
			id := uint32(idx + 1)
			st.Programs++
			i := worker.begin(lProgcacheGet, id)
			comp := cache.Get(src, cfgs, 0)
			worker.end(i)
			if comp.FrontendErr != nil {
				st.FrontendRejects++
				continue
			}
			i = worker.begin(lAssemble, id)
			suite, co, err := core.AssembleDifferential(comp.Results, cfgs, core.Options{})
			worker.end(i)
			if err != nil {
				st.FrontendRejects++
				continue
			}
			if suite == nil {
				i = worker.begin(lAddCompile, id)
				bk, _ := local.AddCompile(co)
				worker.end(i)
				if bk != nil {
					st.Findings++
				} else {
					st.FrontendRejects++
				}
				continue
			}
			st.Accepted++
			i = worker.begin(lProgramRun, id)
			o := suite.Run(nil)
			worker.end(i)
			runs++
			if o != nil && o.Diverged {
				diverged++
				st.Findings++
				i = worker.begin(lBucketAdd, id)
				local.Add(o)
				worker.end(i)
			}
		}
	}()
	w := main.begin(mWait, 0)
	wg.Wait()
	main.end(w)

	i := main.begin(lMerge, 0)
	pooled.Absorb(local.Since(0))
	pooled.Recount(local.Counts())
	main.end(i)
	main.end(root)
	rp := &replayed{wall: time.Since(t0)}

	st.UniqueBuckets = pooled.Len()
	kinds := pooled.KindCounts()
	st.CompileDivergences = kinds[triage.KindCompileDivergence]
	st.ICEs = kinds[triage.KindICE]
	st.DiagMismatches = kinds[triage.KindDiagMismatch]
	st.RuntimeBuckets = kinds[triage.KindRuntime]
	rp.checks++
	got := compileResult{Stats: st, BucketKeys: pooled.Keys()}
	if want := rd.result.(compileResult); !reflect.DeepEqual(got, want) {
		rp.fail("compile-oracle round %d: traced replay %+v differs from the campaign's %+v", rd.index, got, want)
	}
	cs := cache.Stats()
	rp.counts = map[string]float64{
		"progcache.hits":    float64(cs.Hits),
		"progcache.misses":  float64(cs.Misses),
		"core.runs":         runs,
		"core.diverged":     diverged,
		"difffuzz.barriers": 1,
	}
	return rp, nil
}
