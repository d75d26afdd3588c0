package difffuzz

// Concurrency regression tests for the control-plane read path: the
// supervisor's HTTP handlers call Pool.Stats while the campaign is
// executing, so every field it reads must be either atomic,
// mutex-guarded, or barrier-cached. Run under -race (scripts/check.sh
// runs the whole package that way), this pins the persistErrs
// plain-increment fix and the barrier-consistent shard-stat cache.

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestPoolStatsConcurrentWithRun hammers Stats from several reader
// goroutines for the full duration of a sharded campaign. Beyond
// surviving the race detector, the reads must be sane: barrier
// monotonicity (execs, spent budget, and persist errors never go
// backwards) and internal consistency of each snapshot.
func TestPoolStatsConcurrentWithRun(t *testing.T) {
	tg := poolTarget(t)
	// A blocked diffs/ path makes persistence fail at every barrier, so
	// the hammered reads cover the persistErrs counter too — the field
	// whose plain increment used to race with exactly this read.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "diffs"), []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(tg.Src, tg.Seeds, Options{FuzzSeed: 7, Shards: 2, SyncEvery: 150, DiffDir: dir})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastExecs, lastSpent, lastPersist int64
			for {
				select {
				case <-done:
					return
				default:
				}
				st := p.Stats()
				if st.Execs < lastExecs || st.SpentExecs < lastSpent || st.PersistErrors < lastPersist {
					t.Errorf("stats went backwards: execs %d->%d, spent %d->%d, persist %d->%d",
						lastExecs, st.Execs, lastSpent, st.SpentExecs, lastPersist, st.PersistErrors)
					return
				}
				lastExecs, lastSpent, lastPersist = st.Execs, st.SpentExecs, st.PersistErrors
				if len(st.ShardStats) != st.Shards || len(st.ShardErrors) != st.Shards {
					t.Errorf("snapshot shape: %d shards but %d stats, %d errors",
						st.Shards, len(st.ShardStats), len(st.ShardErrors))
					return
				}
			}
		}()
	}

	final := p.Run(context.Background(), 1500)
	close(done)
	wg.Wait()

	if final.UniqueDiffs == 0 {
		t.Fatal("campaign found no discrepancies; the concurrent-read check barely exercised the stores")
	}
	if final.PersistErrors == 0 {
		t.Fatal("blocked DiffDir produced no persist errors; the racy counter path went unexercised")
	}
	// A post-Run Stats call must agree with the value Run returned —
	// the cache is refreshed at the final barrier.
	if again := p.Stats(); again.Execs != final.Execs || again.SpentExecs != final.SpentExecs ||
		again.UniqueCrashes != final.UniqueCrashes || again.PersistErrors != final.PersistErrors {
		t.Fatalf("post-Run Stats %+v disagrees with Run result %+v", again, final)
	}
}

// TestPoolSnapshotSpentExecs: every barrier snapshot carries the
// pool's spent budget, so the last plot.jsonl line is a live
// watermark, and that view is monotonic.
func TestPoolSnapshotSpentExecs(t *testing.T) {
	tg := poolTarget(t)
	opts := Options{FuzzSeed: 7, Shards: 2, SyncEvery: 250, Stats: true}
	p, err := NewPool(tg.Src, tg.Seeds, opts)
	if err != nil {
		t.Fatal(err)
	}
	p.Run(context.Background(), 1000)
	snaps := p.Snapshots()
	if len(snaps) != 4 {
		t.Fatalf("pool recorded %d snapshots, want 4 (budget 1000 / sync 250)", len(snaps))
	}
	for i, s := range snaps {
		if want := int64(250 * (i + 1)); s.SpentExecs != want {
			t.Fatalf("snapshot %d carries spent budget %d, want %d", i, s.SpentExecs, want)
		}
	}
}
