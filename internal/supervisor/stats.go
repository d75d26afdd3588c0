package supervisor

// Farm-wide aggregation. Everything here is read back from the worker
// subtrees — plot.jsonl tails for live counters, checkpoint states
// for the deduplicated finding sets — so the numbers the control
// plane serves are exactly the numbers a post-mortem of the farm
// directory would compute, regardless of which workers are alive.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"

	"compdiff/internal/checkpoint"
	"compdiff/internal/telemetry"
	"compdiff/internal/triage"
)

// FarmStats is the /stats payload: the supervision view, the summed
// live telemetry, and the cross-worker deduplicated finding counts.
type FarmStats struct {
	Paused  bool           `json:"paused"`
	Workers []WorkerStatus `json:"workers"`
	// Merged sums the workers' latest telemetry snapshots. Its Unique*
	// fields are per-worker counts summed — an upper bound on the
	// deduplicated truth below.
	Merged telemetry.Snapshot `json:"merged"`
	// UniqueSignatures / UniqueBuckets are the farm-wide deduplicated
	// counts, computed by unioning the checkpointed signature and
	// bucket-key sets across workers.
	UniqueSignatures int `json:"unique_signatures"`
	UniqueBuckets    int `json:"unique_buckets"`
	// TotalDiffInputs / BucketTotal sum every worker's input counts.
	TotalDiffInputs int `json:"total_diff_inputs"`
	BucketTotal     int `json:"bucket_total"`
	// SpentExecs sums the durable per-worker watermarks.
	SpentExecs int64 `json:"spent_execs"`
}

// dedupEntry caches one worker's checkpoint-derived finding sets,
// keyed by manifest sequence number: the checkpoint only changes when
// Seq does, so /stats polls cost one manifest read per worker, not a
// full state decode.
type dedupEntry struct {
	seq         int
	signatures  []uint64
	diffCounts  []int
	buckets     []triage.BucketSnapshot
	diffTotal   int
	bucketTotal int
}

type dedupCache struct {
	entries map[string]*dedupEntry // keyed by worker root path
}

// workerCheckpoint returns the cached checkpoint view for the worker
// at dirs, refreshing it when the manifest sequence advanced. Workers
// without a checkpoint yet (or mid-rewrite corruption — the next
// barrier fixes it) are reported as nil and excluded from the union.
func (s *Supervisor) workerCheckpoint(dirs checkpoint.WorkerDirs) *dedupEntry {
	man, err := checkpoint.ReadManifest(dirs.Checkpoint)
	if err != nil {
		return nil
	}
	s.mu.Lock()
	e := s.dedup.entries[dirs.Root]
	s.mu.Unlock()
	if e != nil && e.seq == man.Seq {
		return e
	}
	st, _, err := checkpoint.Load(dirs.Checkpoint)
	if err != nil {
		return nil
	}
	e = &dedupEntry{seq: man.Seq, diffTotal: st.DiffTotal, bucketTotal: st.BucketTotal, buckets: st.Buckets}
	for _, d := range st.Diffs {
		e.signatures = append(e.signatures, d.Signature)
		e.diffCounts = append(e.diffCounts, d.Count)
	}
	s.mu.Lock()
	s.dedup.entries[dirs.Root] = e
	s.mu.Unlock()
	return e
}

// listWorkerDirs enumerates every worker subtree on disk — including
// ones resharded away, whose findings still count.
func (s *Supervisor) listWorkerDirs() []checkpoint.WorkerDirs {
	idx, err := checkpoint.ListWorkers(s.cfg.Farm)
	if err != nil {
		return nil
	}
	out := make([]checkpoint.WorkerDirs, len(idx))
	for i, n := range idx {
		out[i] = checkpoint.WorkerLayout(s.cfg.Farm, n)
	}
	return out
}

// Stats assembles the farm-wide view.
func (s *Supervisor) Stats() FarmStats {
	fs := FarmStats{Paused: s.Paused(), Workers: s.Status()}

	var snaps []telemetry.Snapshot
	sigs := map[uint64]bool{}
	keys := map[uint64]bool{}
	dirs := s.listWorkerDirs()
	for _, d := range dirs {
		if snap, ok := lastPlotSnapshot(filepath.Join(d.Stats, "plot.jsonl")); ok {
			snaps = append(snaps, snap)
		}
		if e := s.workerCheckpoint(d); e != nil {
			for _, sig := range e.signatures {
				sigs[sig] = true
			}
			for _, b := range e.buckets {
				keys[b.Key] = true
			}
			fs.TotalDiffInputs += e.diffTotal
			fs.BucketTotal += e.bucketTotal
		}
	}
	fs.Merged = telemetry.MergeSnapshots(snaps...)
	fs.UniqueSignatures = len(sigs)
	fs.UniqueBuckets = len(keys)
	for _, w := range fs.Workers {
		fs.SpentExecs += w.SpentExecs
	}
	return fs
}

// FarmBucket is one row of the merged /buckets table.
type FarmBucket struct {
	Key     uint64 `json:"key"`
	Kind    string `json:"kind"`
	Count   int    `json:"count"`
	Workers int    `json:"workers"` // how many workers hit this bucket
}

// Buckets merges every worker's checkpointed bucket table by triage
// key, summing input counts; sorted by count descending then key.
func (s *Supervisor) Buckets() []FarmBucket {
	merged := map[uint64]*FarmBucket{}
	for _, d := range s.listWorkerDirs() {
		e := s.workerCheckpoint(d)
		if e == nil {
			continue
		}
		for _, b := range e.buckets {
			row := merged[b.Key]
			if row == nil {
				row = &FarmBucket{Key: b.Key, Kind: b.Fingerprint.Kind.String()}
				merged[b.Key] = row
			}
			row.Count += b.Count
			row.Workers++
		}
	}
	out := make([]FarmBucket, 0, len(merged))
	for _, r := range merged {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// FarmFinding is one row of the merged /findings table.
type FarmFinding struct {
	Signature uint64 `json:"signature"`
	Count     int    `json:"count"`
	Workers   int    `json:"workers"`
}

// Findings merges every worker's checkpointed unique-discrepancy set
// by signature, summing input counts.
func (s *Supervisor) Findings() []FarmFinding {
	merged := map[uint64]*FarmFinding{}
	for _, d := range s.listWorkerDirs() {
		e := s.workerCheckpoint(d)
		if e == nil {
			continue
		}
		for j, sig := range e.signatures {
			row := merged[sig]
			if row == nil {
				row = &FarmFinding{Signature: sig}
				merged[sig] = row
			}
			row.Count += e.diffCounts[j]
			row.Workers++
		}
	}
	out := make([]FarmFinding, 0, len(merged))
	for _, r := range merged {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Signature < out[j].Signature
	})
	return out
}

// lastPlotSnapshot parses the last complete line of a plot.jsonl. A
// worker killed mid-append leaves a torn final line, so a line that
// does not parse is skipped for the one before it. Reads the whole
// file: plot files grow one line per barrier and stay small.
func lastPlotSnapshot(path string) (telemetry.Snapshot, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return telemetry.Snapshot{}, false
	}
	lines := bytes.Split(data, []byte("\n"))
	for i := len(lines) - 1; i >= 0; i-- {
		var snap telemetry.Snapshot
		if json.Unmarshal(lines[i], &snap) == nil {
			return snap, true
		}
	}
	return telemetry.Snapshot{}, false
}

// PlotTail returns the last n raw lines of worker index's plot.jsonl
// (all lines when n <= 0). Missing file → empty: the worker has not
// reached its first barrier.
func (s *Supervisor) PlotTail(index, n int) [][]byte {
	d := checkpoint.WorkerLayout(s.cfg.Farm, index)
	data, err := os.ReadFile(filepath.Join(d.Stats, "plot.jsonl"))
	if err != nil {
		return nil
	}
	lines := bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n"))
	if len(lines) == 1 && len(lines[0]) == 0 {
		return nil
	}
	if n > 0 && len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return lines
}
