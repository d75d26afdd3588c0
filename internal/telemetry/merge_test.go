package telemetry

import "testing"

func TestMergeSnapshots(t *testing.T) {
	a := Snapshot{UnixMs: 100, ElapsedMs: 2000, Execs: 1000, DiffExecs: 100,
		Queue: 5, UniqueDiffs: 2, TotalDiffInputs: 4, UniqueBuckets: 2, UniqueCrashes: 1,
		OK: 900, Crash: 50, StepLimitHang: 20, Diff: 30, PersistErrors: 1,
		SpentExecs: 1000, PlateauExecs: 600, Shards: []ShardSnapshot{{Shard: 0}}}
	b := Snapshot{UnixMs: 150, ElapsedMs: 1000, Execs: 500, DiffExecs: 20,
		Queue: 3, UniqueDiffs: 1, TotalDiffInputs: 1, UniqueBuckets: 1, UniqueCrashes: 0,
		OK: 470, Crash: 10, StepLimitHang: 5, Diff: 15, SpentExecs: 750,
		Shards: []ShardSnapshot{{Shard: 0}, {Shard: 1}}}

	m := MergeSnapshots(a, b)
	if m.Execs != 1500 || m.DiffExecs != 120 || m.Queue != 8 ||
		m.UniqueDiffs != 3 || m.TotalDiffInputs != 5 || m.UniqueBuckets != 3 ||
		m.UniqueCrashes != 1 || m.PersistErrors != 1 || m.SpentExecs != 1750 {
		t.Fatalf("sums: %+v", m)
	}
	if m.ClassTotal() != m.Execs {
		t.Fatalf("merged classes sum to %d, execs %d", m.ClassTotal(), m.Execs)
	}
	// Workers run concurrently: elapsed is the max, not the sum, and
	// throughput is recomputed over that wall clock.
	if m.ElapsedMs != 2000 || m.UnixMs != 150 {
		t.Fatalf("elapsed=%d unix=%d", m.ElapsedMs, m.UnixMs)
	}
	if want := 1500 / 2.0; m.ExecsPerSec != want {
		t.Fatalf("ExecsPerSec = %v, want %v", m.ExecsPerSec, want)
	}
	// One worker still finding new paths means the farm is not
	// plateaued: the zero (not-plateaued) value wins over a's 600.
	if m.PlateauExecs != 0 {
		t.Fatalf("PlateauExecs = %d, want 0 (b is not plateaued)", m.PlateauExecs)
	}
	if len(m.Shards) != 3 {
		t.Fatalf("shards concatenate: got %d", len(m.Shards))
	}

	// When every worker is plateaued, the farm's plateau is the
	// shortest one — the most recent global discovery.
	b.PlateauExecs = 900
	if m := MergeSnapshots(a, b); m.PlateauExecs != 600 {
		t.Fatalf("all-plateaued merge: PlateauExecs = %d, want 600", m.PlateauExecs)
	}

	// Merging nothing is a zero snapshot.
	if z := MergeSnapshots(); z.Execs != 0 || z.ExecsPerSec != 0 {
		t.Fatalf("empty merge: %+v", z)
	}
}
