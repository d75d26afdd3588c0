package main

// The evolve workload: an EvolvePool with the default population on
// one shard, a few generations per round. The traced replay evaluates
// the same genomes through progcache, core and triage and breeds them
// with evolve.NextGeneration.

import (
	"context"
	"math/bits"
	"reflect"
	"sync"
	"time"

	"compdiff"
	"compdiff/internal/compiler"
	"compdiff/internal/core"
	"compdiff/internal/evolve"
	"compdiff/internal/progcache"
	"compdiff/internal/progen"
	"compdiff/internal/triage"
)

type evolveWorkload struct {
	pop  int64
	gens int64
}

var evolveSpec = evolveWorkload{pop: 24, gens: 4}

type evolveResult struct {
	Stats      compdiff.EvolveCampaignStats
	BucketKeys []uint64
}

func (e evolveWorkload) options(b *bench, seed int64) compdiff.EvolveCampaignOptions {
	return compdiff.EvolveCampaignOptions{Seed: seed, Pop: int(b.scaled(e.pop, 4)), Generations: int(b.scaled(e.gens, 1)), Shards: 1}
}

func (e evolveWorkload) round(b *bench, r int) (*round, error) {
	rd := &round{index: r, seed: b.roundSeed(r)}
	t0 := time.Now()
	pool, err := compdiff.NewEvolveCampaign(e.options(b, rd.seed))
	rd.setup = time.Since(t0)
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	var st compdiff.EvolveCampaignStats
	measureRun(rd, func() { st = pool.Run(context.Background()) })

	rd.ops = st.Programs
	rd.buckets = st.UniqueBuckets
	rd.coverage = st.PassCoverage
	for si, err := range st.ShardErrors {
		if err != nil {
			rd.fail("evolve round %d: shard %d: %v", r, si, err)
		}
	}
	rd.result = evolveResult{Stats: st, BucketKeys: pool.BucketKeys()}
	return rd, nil
}

// genomeEval is one genome's oracle measurements, folded into fitness
// at the generation barrier.
type genomeEval struct {
	eval     evolve.Eval
	co       *core.CompileOutcome
	outcomes []*core.Outcome
}

func (e evolveWorkload) replay(b *bench, rd *round, tr *tracer) (*replayed, error) {
	opts := e.options(b, rd.seed)
	eopts := evolve.Options{Seed: opts.Seed}
	main := tr.newTrack()
	t0 := time.Now()
	root := main.begin(mRound, uint32(rd.index))
	pop := make([]*evolve.Genome, 0, opts.Pop)
	for i := 0; i < opts.Pop; i++ {
		j := main.begin(lProgenGenerate, 0)
		p := progen.Generate(opts.Seed + int64(i))
		main.end(j)
		pop = append(pop, &evolve.Genome{Src: p.Src, Seed: p.Seed})
	}
	cfgs := compiler.DefaultSet()
	cache := progcache.New(0)
	buckets := triage.NewBucketStore()
	cum := make([]compiler.PassBits, len(cfgs))
	st := compdiff.EvolveCampaignStats{Shards: 1, Generations: opts.Generations, Pop: opts.Pop, ShardErrors: []error{nil}}
	var runs, diverged float64
	worker := tr.newTrack()

	for gen := 0; gen < opts.Generations; gen++ {
		evals := make([]genomeEval, len(pop))
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep := worker.begin(mEpoch, 0)
			defer worker.end(ep)
			for i, g := range pop {
				id := uint32(gen*len(pop) + i + 1)
				ge := &evals[i]
				j := worker.begin(lProgcacheGet, id)
				comp := cache.Get(g.Src, cfgs, 0)
				worker.end(j)
				if comp.FrontendErr != nil {
					ge.eval.FrontendReject = true
					continue
				}
				ge.eval.ImplBits = make([]compiler.PassBits, len(comp.Results))
				for k := range comp.Results {
					ge.eval.ImplBits[k] = comp.Results[k].PassBits
				}
				j = worker.begin(lAssemble, id)
				suite, co, err := core.AssembleDifferential(comp.Results, cfgs, core.Options{})
				worker.end(j)
				if err != nil {
					ge.eval.FrontendReject = true
					continue
				}
				if suite == nil {
					ge.co = co
					continue
				}
				ge.eval.Classes = 1
				j = worker.begin(lProgramRun, id)
				o := suite.Run(nil)
				worker.end(j)
				runs++
				if o == nil {
					continue
				}
				if c := distinctHashes(o.Hashes); c > ge.eval.Classes {
					ge.eval.Classes = c
				}
				if o.Diverged {
					diverged++
					ge.outcomes = append(ge.outcomes, o)
				}
			}
		}()
		w := main.begin(mWait, 0)
		wg.Wait()
		main.end(w)

		// The generation barrier, in genome order (EvolvePool.barrier).
		m := main.begin(lMerge, 0)
		cumStart := append([]compiler.PassBits(nil), cum...)
		fits := make([]float64, len(evals))
		var sum, best float64
		for i := range evals {
			ge := &evals[i]
			id := uint32(gen*len(pop) + i + 1)
			st.Programs++
			if ge.eval.FrontendReject {
				st.FrontendRejects++
			}
			if ge.co != nil {
				j := main.begin(lAddCompile, id)
				bk, fresh := buckets.AddCompile(ge.co)
				main.end(j)
				if bk != nil {
					st.Findings++
					ge.eval.Findings++
					if fresh {
						ge.eval.NewBuckets++
					}
				} else {
					st.FrontendRejects++
				}
			}
			for _, o := range ge.outcomes {
				j := main.begin(lBucketAdd, id)
				_, fresh := buckets.Add(o)
				main.end(j)
				st.Findings++
				ge.eval.Findings++
				if fresh {
					ge.eval.NewBuckets++
				}
			}
			for k, bt := range ge.eval.ImplBits {
				ge.eval.NewBits += bits.OnesCount32(uint32(bt &^ cumStart[k]))
				cum[k] |= bt
			}
			j := main.begin(lFitness, id)
			fits[i] = evolve.Fitness(pop[i], ge.eval, eopts)
			main.end(j)
			sum += fits[i]
			if i == 0 || fits[i] > best {
				best = fits[i]
			}
		}
		st.BestFitness = best
		st.MeanFitness = sum / float64(len(evals))
		main.end(m)

		j := main.begin(lNextGen, uint32(gen))
		pop = evolve.NextGeneration(pop, fits, gen, eopts)
		main.end(j)
		st.Generation++
	}
	main.end(root)
	rp := &replayed{wall: time.Since(t0)}

	st.UniqueBuckets = buckets.Len()
	for _, bt := range cum {
		st.PassCoverage += bt.Count()
	}
	st.PopulationSignature = evolve.Signature(pop)
	kinds := buckets.KindCounts()
	st.CompileDivergences = kinds[triage.KindCompileDivergence]
	st.ICEs = kinds[triage.KindICE]
	st.DiagMismatches = kinds[triage.KindDiagMismatch]
	st.RuntimeBuckets = kinds[triage.KindRuntime]
	rp.checks++
	got := evolveResult{Stats: st, BucketKeys: buckets.Keys()}
	if want := rd.result.(evolveResult); !reflect.DeepEqual(got, want) {
		rp.fail("evolve round %d: traced replay %+v differs from the campaign's %+v", rd.index, got, want)
	}
	cs := cache.Stats()
	rp.counts = map[string]float64{
		"progcache.hits":    float64(cs.Hits),
		"progcache.misses":  float64(cs.Misses),
		"core.runs":         runs,
		"core.diverged":     diverged,
		"difffuzz.barriers": float64(opts.Generations),
	}
	return rp, nil
}

// distinctHashes counts output-checksum partition classes.
func distinctHashes(hs []uint64) int {
	seen := map[uint64]bool{}
	for _, h := range hs {
		seen[h] = true
	}
	return len(seen)
}
