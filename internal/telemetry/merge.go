package telemetry

// MergeSnapshots combines per-worker progress snapshots into one
// farm-wide view: counters and per-class outcome counts sum, the
// queue sums, elapsed time is the maximum (workers run concurrently,
// not back to back), the throughput is recomputed from the merged
// execs over that elapsed time, and the plateau is the minimum across
// workers — the farm last found a new path when its most recently
// successful worker did, so one worker at zero zeroes the farm.
// The Unique* fields sum — an upper bound on the true deduplicated
// counts, which only the checkpointed signature sets can give; the
// supervisor's /stats reports both. Shard lists concatenate in
// argument order.
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	var m Snapshot
	plateau := int64(-1)
	for _, s := range snaps {
		if plateau < 0 || s.PlateauExecs < plateau {
			plateau = s.PlateauExecs
		}
		m.Execs += s.Execs
		m.DiffExecs += s.DiffExecs
		m.Queue += s.Queue
		m.UniqueDiffs += s.UniqueDiffs
		m.TotalDiffInputs += s.TotalDiffInputs
		m.UniqueBuckets += s.UniqueBuckets
		m.UniqueCrashes += s.UniqueCrashes
		m.OK += s.OK
		m.Crash += s.Crash
		m.StepLimitHang += s.StepLimitHang
		m.Diff += s.Diff
		m.PersistErrors += s.PersistErrors
		m.SpentExecs += s.SpentExecs
		m.Programs += s.Programs
		m.CompileDivergences += s.CompileDivergences
		m.ICEs += s.ICEs
		m.DiagMismatches += s.DiagMismatches
		if s.ElapsedMs > m.ElapsedMs {
			m.ElapsedMs = s.ElapsedMs
		}
		if s.UnixMs > m.UnixMs {
			m.UnixMs = s.UnixMs
		}
		m.Shards = append(m.Shards, s.Shards...)
	}
	if plateau > 0 {
		m.PlateauExecs = plateau
	}
	if m.ElapsedMs > 0 {
		m.ExecsPerSec = float64(m.Execs) / (float64(m.ElapsedMs) / 1000)
	}
	return m
}
