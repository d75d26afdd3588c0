package main

// The runtime fuzzing workloads. A round is one CampaignPool at a
// fixed per-shard budget. The traced replay rebuilds the same pool
// from the layers' public functions — parser, sema, compiler, vm,
// core, fuzz, triage, telemetry, checkpoint — in the order the pool
// calls them, and must end in the same state.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"time"

	"compdiff"
	"compdiff/internal/checkpoint"
	"compdiff/internal/compiler"
	"compdiff/internal/core"
	"compdiff/internal/difffuzz"
	"compdiff/internal/fuzz"
	"compdiff/internal/minic/parser"
	"compdiff/internal/minic/sema"
	"compdiff/internal/targets"
	"compdiff/internal/telemetry"
	"compdiff/internal/triage"
	"compdiff/internal/vm"
)

// fuzzSpec is one runtime workload.
type fuzzSpec struct {
	target string
	shards int
	budget int64 // per shard and round
	sync   int64
	// farm sets the pool up the way a -serve farm worker runs one: a
	// checkpoint at every barrier, StatsDir and DiffDir on disk.
	farm bool
}

var (
	readelfSpec   = fuzzSpec{target: "readelf", shards: 2, budget: 12_000, sync: 3_000, farm: true}
	wiresharkSpec = fuzzSpec{target: "wireshark", shards: 1, budget: 12_000}
)

func (s fuzzSpec) options(b *bench, seed int64, dir string) compdiff.CampaignOptions {
	o := compdiff.CampaignOptions{FuzzSeed: seed, Shards: s.shards, SyncEvery: b.scaled(s.sync, 50)}
	if s.farm {
		o.CheckpointDir = filepath.Join(dir, "checkpoint")
		o.CheckpointEvery = 1
		o.StatsDir = filepath.Join(dir, "stats")
		o.DiffDir = filepath.Join(dir, "findings")
	}
	return o
}

// fuzzResult is the part of a fuzz round the replay must reproduce.
type fuzzResult struct {
	Shards          []fuzz.Stats
	DiffExecs       int64
	TotalDiffInputs int
	Signatures      []uint64
	BucketKeys      []uint64
}

func (s fuzzSpec) round(b *bench, r int) (*round, error) {
	tg := targets.ByName(s.target)
	dir, err := b.roundDir("round", r)
	if err != nil {
		return nil, err
	}
	rd := &round{index: r, seed: b.roundSeed(r), dir: dir}
	opts := s.options(b, rd.seed, dir)
	budget := b.scaled(s.budget, 200)

	t0 := time.Now()
	pool, err := compdiff.NewCampaignPool(tg.Src, tg.Seeds, opts)
	rd.setup = time.Since(t0)
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	var st compdiff.PoolStats
	measureRun(rd, func() { st = pool.Run(context.Background(), budget) })

	rd.ops = st.Execs
	rd.buckets = st.UniqueBuckets
	for _, fs := range st.ShardStats {
		rd.coverage += fs.Seeds
	}
	for si, e := range st.ShardErrors {
		if e != nil {
			rd.fail("%s round %d: shard %d: %v", s.target, r, si, e)
		}
	}
	for i := int64(0); i < st.PersistErrors; i++ {
		rd.fail("%s round %d: finding persistence failed", s.target, r)
	}
	if s.farm {
		// A failed save leaves the sequence short of the barrier count.
		rd.checks++
		if want, got := barriers(budget, opts), pool.CheckpointSeq(); got != want {
			rd.fail("%s round %d: %d checkpoints saved at %d barriers", s.target, r, got, want)
		}
	}
	res := fuzzResult{
		Shards:          st.ShardStats,
		DiffExecs:       st.DiffExecs,
		TotalDiffInputs: st.TotalDiffInputs,
		Signatures:      pool.Signatures(),
		BucketKeys:      pool.BucketKeys(),
	}
	rd.result = res
	b.replayWitnesses(rd, tg, pool.Buckets())
	return rd, nil
}

// barriers is the number of synchronization barriers Pool.Run makes.
func barriers(budget int64, opts compdiff.CampaignOptions) int {
	chunk := opts.SyncEvery
	if opts.Shards <= 1 && opts.CheckpointDir == "" {
		chunk = budget
	}
	return int((budget + chunk - 1) / chunk)
}

// fzShard mirrors one pool shard. It is also the shard's B_fuzz
// executor, so every exec is timed on the track the shard runs on.
type fzShard struct {
	tr        *track // where the hooks record: the main track during set-up, own after
	own       *track
	f         *fuzz.Fuzzer
	m         *vm.Machine
	suite     *core.Suite
	diffs     *core.DiffStore
	buckets   *triage.BucketStore
	metrics   *telemetry.CampaignMetrics
	k         int64
	execID    uint32
	diffExecs int64
	diverged  int64
	persist   int64

	diffsSynced   int
	bucketsSynced int
	queueSeen     map[uint64]bool
	err           error
}

func (sh *fzShard) Run(in []byte) *vm.Result { return sh.RunShared(in).Clone() }

func (sh *fzShard) RunShared(in []byte) *vm.Result {
	sh.execID++
	i := sh.tr.begin(lVMBfuzz, sh.execID)
	res := sh.m.RunShared(in)
	sh.tr.end(i)
	return res
}

func (sh *fzShard) Coverage() []byte { return sh.m.Coverage() }

// onExec is the campaign's per-exec hook (difffuzz.Campaign.observe).
func (sh *fzShard) onExec(input []byte, res *vm.Result) {
	tr, id := sh.tr, sh.execID
	obs := tr.begin(lObserve, id)
	i := tr.begin(lDiffExec, id)
	o := sh.suite.RunFast(input)
	tr.end(i)
	var cls telemetry.Class
	if sh.metrics != nil {
		cls = core.ClassifyResult(res)
	}
	sh.diffExecs += sh.k
	if o.Diverged {
		sh.diverged++
		i = tr.begin(lStoreAdd, id)
		_, err := sh.diffs.Add(o)
		tr.end(i)
		if err != nil {
			sh.persist++
		}
		i = tr.begin(lBucketAdd, id)
		sh.buckets.Add(o)
		tr.end(i)
		cls = telemetry.ClassDiff
	}
	if m := sh.metrics; m != nil {
		m.Execs.Inc()
		m.DiffExecs.Add(sh.k)
		m.Classes.Inc(cls)
	}
	tr.end(obs)
}

// fzPool mirrors difffuzz.Pool.
type fzPool struct {
	opts     compdiff.CampaignOptions
	shards   []*fzShard
	store    *core.DiffStore
	buckets  *triage.BucketStore
	rec      *telemetry.Recorder
	saver    *checkpoint.Saver
	hash     uint64
	spent    int64
	persist  int64
	barriers int
	last     *checkpoint.State // the state saved at the last barrier
	failures []string
}

func buildFzPool(tr *tracer, main *track, tg *targets.Target, opts compdiff.CampaignOptions) (*fzPool, error) {
	i := main.begin(lFrontend, 0)
	prog, err := parser.Parse(tg.Src)
	var info *sema.Info
	if err == nil {
		info, err = sema.Check(prog)
	}
	main.end(i)
	if err != nil {
		return nil, err
	}
	p := &fzPool{opts: opts, store: core.NewDiffStore(opts.DiffDir), buckets: triage.NewBucketStore()}
	if opts.CheckpointDir != "" {
		p.hash = difffuzz.CampaignHash(tg.Src, tg.Seeds, opts)
		if p.saver, err = checkpoint.NewSaver(opts.CheckpointDir); err != nil {
			return nil, err
		}
	}
	stats := opts.Stats || opts.StatsDir != "" || opts.StatsEvery > 0
	if stats {
		if p.rec, err = telemetry.NewRecorder(opts.StatsDir); err != nil {
			return nil, err
		}
	}
	cfgs := compiler.DefaultSet()
	names := make([]string, len(cfgs))
	for j, cfg := range cfgs {
		names[j] = cfg.Name()
	}
	n := opts.Shards
	if n < 1 {
		n = 1
	}
	for si := 0; si < n; si++ {
		sh := &fzShard{tr: main, own: tr.newTrack(), diffs: core.NewDiffStore(""), buckets: triage.NewBucketStore(),
			k: int64(len(cfgs)), queueSeen: map[uint64]bool{}}
		fuzzCfg := compiler.Config{Family: compiler.Clang, Opt: difffuzz.O1ForSan(opts.Sanitizer), Instrument: true}
		i = main.begin(lBfuzzCompile, 0)
		bfuzz, err := compiler.Compile(info, fuzzCfg)
		main.end(i)
		if err != nil {
			return nil, err
		}
		i = main.begin(lVMNew, 0)
		sh.m = vm.New(bfuzz, vm.Options{Coverage: true, StepLimit: opts.StepLimit})
		main.end(i)
		copts := core.Options{StepLimit: opts.StepLimit, Normalizer: opts.Normalizer, Parallelism: opts.Parallelism}
		i = main.begin(lCoreBuild, 0)
		if stats {
			sh.metrics = telemetry.NewCampaignMetrics(names)
			copts.Metrics = sh.metrics.Suite
		}
		sh.suite, err = core.Build(info, cfgs, copts)
		main.end(i)
		if err != nil {
			return nil, err
		}
		i = main.begin(lFuzzNew, 0)
		sh.f = fuzz.New(sh, tg.Seeds, fuzz.Options{
			Seed:              difffuzz.ShardSeed(opts.FuzzSeed, si),
			MaxInputLen:       opts.MaxInputLen,
			SkipDeterministic: si > 0,
			OnExec:            sh.onExec,
		})
		main.end(i)
		sh.tr = sh.own
		p.shards = append(p.shards, sh)
	}
	return p, nil
}

// run mirrors Pool.Run: epochs on one goroutine per shard, then a
// single-threaded barrier.
func (p *fzPool) run(main *track, budget int64) {
	chunk := p.opts.SyncEvery
	if chunk <= 0 {
		chunk = budget / 8
	}
	if len(p.shards) == 1 && p.saver == nil {
		chunk = budget
	}
	if chunk < 1 {
		chunk = budget
	}
	for spent := int64(0); spent < budget; {
		step := min(chunk, budget-spent)
		var wg sync.WaitGroup
		for si, sh := range p.shards {
			if sh.err != nil {
				continue
			}
			wg.Add(1)
			go func(si int, sh *fzShard) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						sh.err = fmt.Errorf("shard %d panicked: %v", si, r)
					}
				}()
				i := sh.own.begin(lFuzzRun, 0)
				sh.f.Run(step)
				sh.own.end(i)
			}(si, sh)
		}
		w := main.begin(mWait, 0)
		wg.Wait()
		main.end(w)
		spent += step
		p.spent += step
		p.barriers++
		p.synchronize(main)
		if p.rec != nil {
			i := main.begin(lTelemetry, 0)
			p.rec.Record(p.snapshot())
			main.end(i)
		}
		if p.saver != nil {
			i := main.begin(lCkptExport, 0)
			p.last = p.export()
			main.end(i)
			i = main.begin(lCkptSave, 0)
			err := p.saver.Save(p.last)
			main.end(i)
			if err != nil {
				p.failures = append(p.failures, fmt.Sprintf("checkpoint save: %v", err))
			}
		}
	}
}

// synchronize mirrors the pool barrier: merge-then-recount of the
// diff and bucket stores in shard order, then cross-pollination.
func (p *fzPool) synchronize(main *track) {
	i := main.begin(lMerge, 0)
	defer main.end(i)
	var fresh [][]byte
	for _, s := range p.shards {
		delta := s.diffs.Since(s.diffsSynced)
		s.diffsSynced += len(delta)
		added, err := p.store.Absorb(delta)
		if err != nil {
			p.persist++
		}
		for _, d := range added {
			fresh = append(fresh, d.Outcome.Input)
		}
	}
	totals := map[uint64]int{}
	for _, s := range p.shards {
		for sig, c := range s.diffs.Counts() {
			totals[sig] += c
		}
	}
	p.store.Recount(totals)
	for _, s := range p.shards {
		delta := s.buckets.Since(s.bucketsSynced)
		s.bucketsSynced += len(delta)
		p.buckets.Absorb(delta)
	}
	btotals := map[uint64]int{}
	for _, s := range p.shards {
		for key, c := range s.buckets.Counts() {
			btotals[key] += c
		}
	}
	p.buckets.Recount(btotals)
	for _, s := range p.shards {
		var seeds [][]byte
		for _, q := range s.f.Queue() {
			if !s.queueSeen[q.Hash] {
				s.queueSeen[q.Hash] = true
				seeds = append(seeds, q.Data)
			}
		}
		for _, other := range p.shards {
			if other == s || other.err != nil {
				continue
			}
			for _, data := range seeds {
				other.f.ForceSeed(data)
			}
		}
	}
	for _, s := range p.shards {
		if s.err != nil {
			continue
		}
		for _, data := range fresh {
			s.f.ForceSeed(data)
		}
	}
}

// snapshot builds the pool-wide telemetry record a barrier appends to
// plot.jsonl.
func (p *fzPool) snapshot() telemetry.Snapshot {
	var s telemetry.Snapshot
	var classes [telemetry.NumClasses]int64
	crashes := map[string]bool{}
	for si, sh := range p.shards {
		m, st := sh.metrics, sh.f.Stats()
		s.Execs += m.Execs.Load()
		s.DiffExecs += m.DiffExecs.Load()
		for k, n := range m.Classes.Snapshot() {
			classes[k] += n
		}
		s.Queue += st.Seeds
		for _, cr := range sh.f.Crashes() {
			crashes[string(cr.Input)] = true
		}
		role := "main"
		if si > 0 {
			role = "secondary"
		}
		s.Shards = append(s.Shards, telemetry.ShardSnapshot{Shard: si, Role: role, Execs: m.Execs.Load(), Queue: st.Seeds,
			UniqueDiffs: sh.diffs.Len(), UniqueBuckets: sh.buckets.Len(), PlateauExecs: st.Execs - st.LastNewPath})
	}
	s.SetClasses(classes)
	s.UniqueDiffs = p.store.Len()
	s.TotalDiffInputs = p.store.Total()
	s.UniqueBuckets = p.buckets.Len()
	s.UniqueCrashes = len(crashes)
	return s
}

// export builds the checkpoint state the pool saves at a barrier.
func (p *fzPool) export() *checkpoint.State {
	st := &checkpoint.State{Version: checkpoint.Version, OptionsHash: p.hash, SpentExecs: p.spent, PersistErrors: p.persist}
	for si, s := range p.shards {
		ss := checkpoint.ShardState{Index: si, Dead: s.err != nil, Fuzzer: s.f.ExportState(), DiffExecs: s.diffExecs, PersistErrors: s.persist}
		for h := range s.queueSeen {
			ss.QueueSeen = append(ss.QueueSeen, h)
		}
		sort.Slice(ss.QueueSeen, func(i, j int) bool { return ss.QueueSeen[i] < ss.QueueSeen[j] })
		for _, d := range s.diffs.Unique() {
			ss.Diffs = append(ss.Diffs, &core.StoredDiff{Signature: d.Signature, Count: d.Count})
		}
		ss.DiffTotal = s.diffs.Total()
		snaps, total := s.buckets.Export()
		for i := range snaps {
			snaps[i].Outcome = nil
		}
		ss.Buckets, ss.BucketTotal = snaps, total
		if m := s.metrics; m != nil {
			ss.Metrics = &checkpoint.MetricsState{Execs: m.Execs.Load(), DiffExecs: m.DiffExecs.Load(),
				Classes: m.Classes.Snapshot(), Impls: m.Suite.Summaries()}
		}
		st.Shards = append(st.Shards, ss)
	}
	st.Diffs, st.DiffTotal = p.store.Unique(), p.store.Total()
	st.Buckets, st.BucketTotal = p.buckets.Export()
	return st
}

func (p *fzPool) result() fuzzResult {
	var r fuzzResult
	for _, sh := range p.shards {
		r.Shards = append(r.Shards, sh.f.Stats())
		r.DiffExecs += sh.diffExecs
	}
	r.TotalDiffInputs = p.store.Total()
	for _, d := range p.store.Unique() {
		r.Signatures = append(r.Signatures, d.Signature)
	}
	sort.Slice(r.Signatures, func(i, j int) bool { return r.Signatures[i] < r.Signatures[j] })
	r.BucketKeys = p.buckets.Keys()
	return r
}

func (s fuzzSpec) replay(b *bench, rd *round, tr *tracer) (*replayed, error) {
	tg := targets.ByName(s.target)
	dir, err := b.roundDir("replay", rd.index)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	opts := s.options(b, rd.seed, dir)
	budget := b.scaled(s.budget, 200)

	main := tr.newTrack()
	t0 := time.Now()
	root := main.begin(mRound, uint32(rd.index))
	p, err := buildFzPool(tr, main, tg, opts)
	if err != nil {
		return nil, err
	}
	p.run(main, budget)
	main.end(root)
	rp := &replayed{checked: checked{failures: p.failures}, wall: time.Since(t0), counts: map[string]float64{}}
	if p.rec != nil {
		p.rec.Close()
	}

	rp.checks++
	if got, want := p.result(), rd.result.(fuzzResult); !reflect.DeepEqual(got, want) {
		rp.fail("%s round %d: traced replay %+v differs from the campaign's %+v", s.target, rd.index, summary(got), summary(want))
	}
	for _, sh := range p.shards {
		if sh.err != nil {
			rp.fail("%s round %d: traced replay %v", s.target, rd.index, sh.err)
		}
	}
	if p.saver != nil {
		// The campaign's own last checkpoint must hold the state the
		// replay exported at its last barrier.
		i := main.begin(lCkptLoad, uint32(rd.index))
		st, _, err := checkpoint.Load(s.options(b, rd.seed, rd.dir).CheckpointDir)
		main.end(i)
		rp.checks++
		if err != nil {
			rp.fail("%s round %d: loading the campaign checkpoint: %v", s.target, rd.index, err)
		} else if !sameState(st, p.last) {
			rp.fail("%s round %d: the campaign checkpoint differs from the traced replay's state", s.target, rd.index)
		}
		man, err := checkpoint.ReadManifest(opts.CheckpointDir)
		if err != nil {
			return nil, err
		}
		rp.counts["checkpoint.bytes"] = float64(man.StateSize)
	}
	r := p.result()
	for _, st := range r.Shards {
		rp.counts["fuzz.execs"] += float64(st.Execs)
		rp.counts["fuzz.queue"] += float64(st.Seeds)
	}
	for _, sh := range p.shards {
		rp.counts["core.diverged"] += float64(sh.diverged)
		rp.counts["core.runs"] += float64(sh.diffExecs / sh.k)
	}
	rp.counts["fuzz.cov_map_bytes"] = float64(len(p.shards[0].m.Coverage()))
	rp.counts["difffuzz.barriers"] = float64(p.barriers)
	return rp, nil
}

// summary renders a fuzz round's result for a failure message.
func summary(r fuzzResult) string {
	var execs int64
	for _, s := range r.Shards {
		execs += s.Execs
	}
	return fmt.Sprintf("execs=%d diffexecs=%d diffs=%d sigs=%d buckets=%d", execs, r.DiffExecs, r.TotalDiffInputs, len(r.Signatures), len(r.BucketKeys))
}

// sameState compares two checkpoint states in their saved encoding,
// leaving out the per-implementation latency histograms, which are
// wall-clock measurements.
func sameState(a, b *checkpoint.State) bool {
	if a == nil || b == nil {
		return false
	}
	enc := func(st *checkpoint.State) []byte {
		c := *st
		c.Shards = append([]checkpoint.ShardState(nil), st.Shards...)
		for i := range c.Shards {
			if m := c.Shards[i].Metrics; m != nil {
				mc := *m
				mc.Impls = nil
				c.Shards[i].Metrics = &mc
			}
		}
		data, _ := json.Marshal(&c)
		return data
	}
	return bytes.Equal(enc(a), enc(b))
}
