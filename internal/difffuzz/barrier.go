package difffuzz

// The barrier-campaign driver behind all three campaign modes: Pool
// (runtime fuzzing), CompilePool (compile oracle) and EvolvePool
// (evolutionary generation). Each runs N shards that meet at
// single-threaded synchronization barriers, the AFL -M/-S sync points
// of the paper's §4 campaigns. The driver owns what does not depend on
// what a shard computes: the epoch loop and cancellation,
// goroutine-per-shard with panic capture, the pool-wide triage store,
// checkpoint cadence and the final save, the plot.jsonl recorder, and
// the open/resume lifecycle of both. A mode embeds the driver and
// hands Run an epochMode.

import (
	"context"
	"fmt"
	"log"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"compdiff/internal/checkpoint"
	"compdiff/internal/telemetry"
	"compdiff/internal/triage"
)

// epochMode is what a campaign mode supplies to the driver.
type epochMode interface {
	// next prepares epoch number epoch of this Run call and reports
	// whether one is due. Per-epoch test hooks run here; the driver
	// re-checks cancellation afterwards.
	next(epoch int) bool
	// work runs shard si's share of the epoch on its own goroutine.
	work(ctx context.Context, si int)
	// merge is the barrier body, run once every shard has joined. It
	// reports false for an incomplete epoch: nothing merged, Run ends.
	merge() bool
	snapshot() telemetry.Snapshot
	exportState() *checkpoint.State
}

// barrierObserver is implemented by modes that act last at every
// barrier, after the checkpoint; false ends Run.
type barrierObserver interface {
	afterBarrier() bool
}

// driverConfig is what a mode's constructor tells the driver.
type driverConfig struct {
	shards    int
	shardName string // labels panic errors
	// abortOnPanic: a shard panic ends Run with the epoch unmerged and
	// the shard still live. Otherwise the shard is retired (skipped
	// from then on) and the others keep going.
	abortOnPanic bool

	checkpointDir   string
	checkpointEvery int64
	optionsHash     uint64
	resume          bool // an existing checkpoint in checkpointDir is expected

	stats    bool   // record one snapshot per barrier
	statsDir string // and append them to statsDir/plot.jsonl
}

// driver is the barrier loop's state, embedded by every pool.
type driver struct {
	shardName    string
	abortOnPanic bool

	// mu guards shard health, which a panicking shard goroutine writes
	// while a control plane may be reading stats. Pool also guards its
	// barrier-consistent stat caches with it.
	mu   sync.Mutex
	dead []bool
	errs []error

	// buckets is the pool-wide triage store shard findings merge into.
	buckets *triage.BucketStore

	statsRecorder

	// saver is nil unless checkpointing was requested; it saves every
	// ckptEvery barriers and once more when Run returns. optionsHash
	// guards resume.
	saver       *checkpoint.Saver
	ckptEvery   int64
	sinceCkpt   int64
	ckptLogged  bool
	optionsHash uint64
}

// open refuses to clobber an existing checkpoint unless resuming,
// opens the saver and the recorder, then runs build, the mode's
// remaining construction. A build failure closes the recorder again.
func (d *driver) open(c driverConfig, build func() error) error {
	d.shardName, d.abortOnPanic = c.shardName, c.abortOnPanic
	d.dead, d.errs = make([]bool, c.shards), make([]error, c.shards)
	d.buckets = triage.NewBucketStore()
	d.optionsHash = c.optionsHash
	if c.checkpointDir != "" {
		if !c.resume && checkpoint.Exists(c.checkpointDir) {
			return fmt.Errorf("difffuzz: %s already holds a checkpoint; resume it or pick a fresh directory", c.checkpointDir)
		}
		saver, err := checkpoint.NewSaver(c.checkpointDir)
		if err != nil {
			return fmt.Errorf("difffuzz: %w", err)
		}
		d.saver, d.ckptEvery = saver, max(c.checkpointEvery, 1)
	}
	if c.stats {
		rec, err := telemetry.NewRecorder(c.statsDir)
		if err != nil {
			return fmt.Errorf("difffuzz: stats: %w", err)
		}
		d.recorder = rec
	}
	if build != nil {
		if err := build(); err != nil {
			d.Close()
			return err
		}
	}
	return nil
}

// resumeFrom loads the checkpoint in dir, checks it was written under
// options hashing to hash, builds a pool and restores the checkpoint
// into it, closing the pool if that fails. Errors are classified:
// checkpoint.ErrNoCheckpoint (nothing to resume — start fresh),
// checkpoint.ErrMismatch (different options — a user error; what names
// the inputs that must match), checkpoint.ErrCorrupt (damaged files,
// or a state the pool cannot take).
func resumeFrom[P interface {
	restore(*checkpoint.State) error
	Close() error
}](dir string, hash uint64, what string, build func() (P, error)) (P, error) {
	var zero P
	if dir == "" {
		return zero, fmt.Errorf("difffuzz: resume requires CheckpointDir")
	}
	st, _, err := checkpoint.Load(dir)
	if err != nil {
		return zero, err
	}
	if st.OptionsHash != hash {
		return zero, fmt.Errorf("%w: checkpoint options hash %016x, this campaign hashes to %016x (same %s required)",
			checkpoint.ErrMismatch, st.OptionsHash, hash, what)
	}
	p, err := build()
	if err != nil {
		return zero, err
	}
	if err := p.restore(st); err != nil {
		p.Close()
		return zero, fmt.Errorf("%w: %v", checkpoint.ErrCorrupt, err)
	}
	return p, nil
}

// run drives m until it has no more work, ctx is cancelled, or the
// mode ends the run. Cancellation is observed between epochs: an epoch
// in flight finishes and merges.
func (d *driver) run(ctx context.Context, m epochMode) {
	if ctx == nil {
		ctx = context.Background()
	}
	obs, _ := m.(barrierObserver)
	for epoch := 0; ctx.Err() == nil && m.next(epoch); epoch++ {
		if ctx.Err() != nil {
			break
		}
		if d.runShards(ctx, m) && d.abortOnPanic || !m.merge() {
			break
		}
		if d.recorder != nil {
			d.recorder.Record(m.snapshot())
		}
		if d.saver != nil {
			if d.sinceCkpt++; d.sinceCkpt >= d.ckptEvery {
				d.save(m)
			}
		}
		if obs != nil && !obs.afterBarrier() {
			break
		}
	}
	// The last barrier may not have been checkpoint-due; make the final
	// state durable so a follow-up resume loses nothing.
	if d.saver != nil && d.sinceCkpt > 0 {
		d.save(m)
	}
	if d.recorder == nil {
		return
	}
	if ctx.Err() != nil {
		// A cancelled run typically ends on a signal-driven exit path
		// that never calls Close: record the final merged state, flush
		// and close, so the plot.jsonl tail is complete.
		d.recorder.Record(m.snapshot())
		_ = d.recorder.Sync()
		_ = d.recorder.Close()
		return
	}
	_ = d.recorder.Sync()
}

// runShards runs one epoch of work on every live shard, a goroutine
// each, and reports whether any of them panicked.
func (d *driver) runShards(ctx context.Context, m epochMode) bool {
	var wg sync.WaitGroup
	var panicked atomic.Bool
	for si := range d.dead {
		if d.dead[si] {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.Store(true)
					d.mu.Lock()
					d.dead[si] = !d.abortOnPanic
					d.errs[si] = fmt.Errorf("difffuzz: %s %d panicked: %v\n%s", d.shardName, si, r, debug.Stack())
					d.mu.Unlock()
				}
			}()
			m.work(ctx, si)
		}()
	}
	wg.Wait()
	return panicked.Load()
}

// save writes a checkpoint. A failure never stops the campaign — the
// previous checkpoint stays loadable — but the first one is logged.
func (d *driver) save(m epochMode) {
	d.sinceCkpt = 0
	if err := d.saver.Save(m.exportState()); err != nil && !d.ckptLogged {
		log.Printf("difffuzz: checkpoint save failed (campaign continues on the previous checkpoint): %v", err)
		d.ckptLogged = true
	}
}

// newState starts a checkpoint with the header and the pool-wide
// triage store, which every mode saves in full.
func (d *driver) newState(spent int64) *checkpoint.State {
	st := &checkpoint.State{Version: checkpoint.Version, OptionsHash: d.optionsHash, SpentExecs: spent}
	st.Buckets, st.BucketTotal = d.buckets.Export()
	return st
}

// shardErrors has one entry per shard; non-nil marks a shard that
// panicked.
func (d *driver) shardErrors() []error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]error(nil), d.errs...)
}

func (d *driver) live() int {
	n := 0
	for _, dead := range d.dead {
		if !dead {
			n++
		}
	}
	return n
}

// mergeBuckets merges shard-local bucket stores into the pool-wide
// one, merge-then-recount: new buckets are absorbed in shard order,
// then each bucket's hit count becomes the exact sum over the shard
// stores. shard returns shard i's store and its merge cursor.
func (d *driver) mergeBuckets(n int, shard func(i int) (*triage.BucketStore, *int)) {
	totals := map[uint64]int{}
	for i := 0; i < n; i++ {
		bs, synced := shard(i)
		delta := bs.Since(*synced)
		*synced += len(delta)
		d.buckets.Absorb(delta)
		for key, c := range bs.Counts() {
			totals[key] += c
		}
	}
	d.buckets.Recount(totals)
}

// kinds breaks the pool-wide buckets down by finding kind.
func (d *driver) kinds() (compileDivergences, ices, diagMismatches, runtime int) {
	k := d.buckets.KindCounts()
	return k[triage.KindCompileDivergence], k[triage.KindICE], k[triage.KindDiagMismatch], k[triage.KindRuntime]
}

// Buckets returns the pool-wide fingerprint-deduplicated findings in
// merge order.
func (d *driver) Buckets() []*triage.Bucket { return d.buckets.Buckets() }

// BucketStore exposes the pool-wide triage store (reports, tables).
func (d *driver) BucketStore() *triage.BucketStore { return d.buckets }

// BucketKeys returns the sorted bucket-key set — the order-independent
// fingerprint of a campaign's findings.
func (d *driver) BucketKeys() []uint64 { return d.buckets.Keys() }

// CheckpointSeq is the sequence number of the last durable checkpoint
// (0 when checkpointing is off or nothing has been saved).
func (d *driver) CheckpointSeq() int {
	if d.saver == nil {
		return 0
	}
	return d.saver.Seq()
}

// statsRecorder holds the optional telemetry recorder of a campaign
// or pool, nil unless stats were requested.
type statsRecorder struct {
	recorder *telemetry.Recorder
}

// Snapshots returns the recorded progress series (empty when stats are
// disabled). A pool records one entry per barrier, plus a final one
// when a run was cancelled.
func (r statsRecorder) Snapshots() []telemetry.Snapshot {
	if r.recorder == nil {
		return nil
	}
	return r.recorder.Snapshots()
}

// Close releases the recorder's plot file, if any. A no-op once a
// cancelled pool Run has closed it.
func (r statsRecorder) Close() error {
	if r.recorder == nil {
		return nil
	}
	return r.recorder.Close()
}
