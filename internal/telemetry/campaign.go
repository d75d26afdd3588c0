package telemetry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// SuiteMetrics is the per-implementation view a differential suite
// feeds: every VM execution on every CompDiff binary is classified
// (ok / crash / step-limit-hang) and its latency recorded. All methods
// are safe for concurrent use — the parallel suite layer calls
// ObserveRun from its worker goroutines.
type SuiteMetrics struct {
	names []string
	impls []implMetrics
}

// implMetrics is one implementation's counters. The parallel suite
// layer assigns each worker a different implementation, so adjacent
// entries are updated by different goroutines concurrently; the pad
// keeps one implementation's hot counters off its neighbor's cache
// line (the interleaved Histogram separates entries further).
type implMetrics struct {
	outcomes ClassCounters
	_        [4]int64
	latency  Histogram
}

// NewSuiteMetrics creates metrics for the named implementations
// (suite order).
func NewSuiteMetrics(names []string) *SuiteMetrics {
	return &SuiteMetrics{
		names: append([]string(nil), names...),
		impls: make([]implMetrics, len(names)),
	}
}

// ObserveRun records one VM execution on implementation impl.
func (m *SuiteMetrics) ObserveRun(impl int, k Class, d time.Duration) {
	if m == nil || impl < 0 || impl >= len(m.impls) {
		return
	}
	im := &m.impls[impl]
	im.outcomes.Inc(k)
	im.latency.Observe(d)
}

// ImplNames returns the implementation names in suite order.
func (m *SuiteMetrics) ImplNames() []string { return m.names }

// ImplSummary is one implementation's aggregated run telemetry.
type ImplSummary struct {
	Name     string
	Outcomes [NumClasses]int64
	Latency  HistogramSnapshot
}

// Runs is the total number of VM executions observed.
func (s *ImplSummary) Runs() int64 {
	var t int64
	for _, n := range s.Outcomes {
		t += n
	}
	return t
}

// Summaries snapshots every implementation's outcome counts and
// latency histogram.
func (m *SuiteMetrics) Summaries() []ImplSummary {
	if m == nil {
		return nil
	}
	out := make([]ImplSummary, len(m.names))
	for i := range out {
		out[i] = ImplSummary{
			Name:     m.names[i],
			Outcomes: m.impls[i].outcomes.Snapshot(),
			Latency:  m.impls[i].latency.Snapshot(),
		}
	}
	return out
}

// MergeImplSummaries adds src into dst positionwise (shards share the
// implementation set, so position identifies the implementation). A
// nil dst is initialized from src.
func MergeImplSummaries(dst, src []ImplSummary) []ImplSummary {
	if dst == nil {
		dst = make([]ImplSummary, len(src))
		copy(dst, src)
		return dst
	}
	for i := range src {
		if i >= len(dst) {
			dst = append(dst, src[i])
			continue
		}
		for k := range dst[i].Outcomes {
			dst[i].Outcomes[k] += src[i].Outcomes[k]
		}
		dst[i].Latency.Merge(src[i].Latency)
	}
	return dst
}

// CampaignMetrics is one fuzzing campaign's (or one shard's) live
// counters: B_fuzz executions, CompDiff executions, per-class outcome
// counts, and the per-implementation suite metrics. Counters are
// updated on the fuzzing hot path (atomics only); snapshots are
// assembled elsewhere.
type CampaignMetrics struct {
	// Execs counts B_fuzz executions (one per generated input).
	Execs Counter
	// DiffExecs counts executions spent on the CompDiff binaries.
	DiffExecs Counter
	// Classes classifies every generated input into exactly one
	// outcome class, so the per-class counts always sum to Execs.
	Classes ClassCounters
	// Suite holds the per-implementation run telemetry.
	Suite *SuiteMetrics
}

// NewCampaignMetrics creates campaign metrics over the named CompDiff
// implementations.
func NewCampaignMetrics(implNames []string) *CampaignMetrics {
	return &CampaignMetrics{Suite: NewSuiteMetrics(implNames)}
}

// Snapshot is one AFL-plot-style progress record. A campaign appends
// these to an in-memory series and, when a stats directory is
// configured, to <dir>/plot.jsonl (one JSON object per line). The
// per-class counts (OK, Crash, StepLimitHang, Diff) partition Execs.
type Snapshot struct {
	UnixMs          int64   `json:"unix_ms"`
	ElapsedMs       int64   `json:"elapsed_ms"`
	Execs           int64   `json:"execs"`
	ExecsPerSec     float64 `json:"execs_per_sec"`
	DiffExecs       int64   `json:"diff_execs"`
	Queue           int     `json:"queue"`
	UniqueDiffs     int     `json:"unique_diffs"`
	TotalDiffInputs int     `json:"total_diff_inputs"`
	// UniqueBuckets counts distinct divergence-fingerprint buckets —
	// the triage layer's deduplicated finding count, always <=
	// UniqueDiffs since the fingerprint coarsens the signature.
	UniqueBuckets int   `json:"unique_buckets"`
	UniqueCrashes int   `json:"unique_crashes"`
	OK            int64 `json:"ok"`
	Crash         int64 `json:"crash"`
	StepLimitHang int64 `json:"step_limit_hang"`
	Diff          int64 `json:"diff"`
	// PlateauExecs is the number of executions since the queue last
	// grew (AFL's "last new path" age) — pools report the smallest
	// per-shard value.
	PlateauExecs int64 `json:"plateau_execs"`
	// PersistErrors counts DiffStore persistence failures (disk-full,
	// permission loss): the campaign keeps running, but the on-disk
	// evidence is incomplete and reports should say so.
	PersistErrors int64 `json:"persist_errors,omitempty"`
	// SpentExecs is a pool's cumulative per-shard budget, carried
	// across resumes by the checkpoint. A supervised worker's last
	// plot.jsonl line is thus its live watermark, which the supervisor
	// reconciles against the checkpointed one after a crash.
	SpentExecs int64           `json:"spent_execs,omitempty"`
	Shards     []ShardSnapshot `json:"shards,omitempty"`

	// Compile-stage oracle counters, set only by program-corpus
	// campaigns (zero and omitted in input-fuzzing campaigns). They are
	// deliberately separate fields rather than new outcome classes:
	// ClassCounters arrays are serialized in checkpoints, so growing
	// NumClasses would change that schema.
	Programs           int64 `json:"programs,omitempty"`
	CompileDivergences int   `json:"compile_divergences,omitempty"`
	ICEs               int   `json:"ices,omitempty"`
	DiagMismatches     int   `json:"diag_mismatches,omitempty"`

	// Evolutionary-campaign telemetry, set only in -evolve mode (same
	// omitempty discipline as the compile-stage block above).
	// Generation is the number of fully evaluated generations;
	// PassCoverage counts distinct (implementation, optimizer-pass)
	// pairs fired so far — the campaign's cumulative rewrite coverage.
	Generation   int     `json:"generation,omitempty"`
	BestFitness  float64 `json:"best_fitness,omitempty"`
	MeanFitness  float64 `json:"mean_fitness,omitempty"`
	PassCoverage int     `json:"pass_coverage,omitempty"`
}

// SetClasses fills the per-class fields from a ClassCounters snapshot.
func (s *Snapshot) SetClasses(c [NumClasses]int64) {
	s.OK = c[ClassOK]
	s.Crash = c[ClassCrash]
	s.StepLimitHang = c[ClassStepLimitHang]
	s.Diff = c[ClassDiff]
}

// ClassTotal sums the per-class counts; in every valid snapshot it
// equals Execs.
func (s *Snapshot) ClassTotal() int64 {
	return s.OK + s.Crash + s.StepLimitHang + s.Diff
}

// ShardSnapshot is one shard's state inside a pool snapshot.
type ShardSnapshot struct {
	Shard         int    `json:"shard"`
	Role          string `json:"role"` // "main" or "secondary", AFL -M/-S
	Execs         int64  `json:"execs"`
	Queue         int    `json:"queue"`
	UniqueDiffs   int    `json:"unique_diffs"`
	UniqueBuckets int    `json:"unique_buckets"`
	PlateauExecs  int64  `json:"plateau_execs"`
	Retired       bool   `json:"retired"`
}

// Recorder timestamps snapshots, keeps the in-memory series, and
// appends each one as a JSON line to <dir>/plot.jsonl when a
// directory is configured. Record is called from one goroutine at a
// time in practice (snapshot points are barriers or the campaign
// goroutine), but the recorder locks anyway so misuse cannot corrupt
// the series.
type Recorder struct {
	mu    sync.Mutex
	start time.Time
	snaps []Snapshot
	f     *os.File
}

// NewRecorder creates a recorder; with a non-empty dir, snapshots are
// appended to dir/plot.jsonl (the directory is created as needed).
func NewRecorder(dir string) (*Recorder, error) {
	r := &Recorder{start: time.Now()}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		f, err := os.OpenFile(filepath.Join(dir, "plot.jsonl"),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		r.f = f
	}
	return r, nil
}

// Record stamps the snapshot's wall-clock fields and rate, appends it
// to the series and the plot file, and returns the stamped snapshot.
// File-write errors are swallowed: losing a plot line must never kill
// a campaign (the in-memory series still has the snapshot).
func (r *Recorder) Record(s Snapshot) Snapshot {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	elapsed := now.Sub(r.start)
	if elapsed < time.Millisecond {
		elapsed = time.Millisecond
	}
	s.UnixMs = now.UnixMilli()
	s.ElapsedMs = elapsed.Milliseconds()
	s.ExecsPerSec = float64(s.Execs) / elapsed.Seconds()
	r.snaps = append(r.snaps, s)
	if r.f != nil {
		if line, err := json.Marshal(s); err == nil {
			line = append(line, '\n')
			_, _ = r.f.Write(line)
		}
	}
	return s
}

// Restore overwrites the suite metrics with checkpointed summaries
// (matched positionwise to the implementation set). Only for use
// before concurrent observation resumes.
func (m *SuiteMetrics) Restore(sums []ImplSummary) {
	if m == nil {
		return
	}
	for i := range m.impls {
		if i >= len(sums) {
			break
		}
		m.impls[i].outcomes.Store(sums[i].Outcomes)
		m.impls[i].latency.Restore(sums[i].Latency)
	}
}

// Sync flushes the plot file to disk, if any — campaigns call it
// after a final snapshot so an imminent process exit cannot lose the
// tail line.
func (r *Recorder) Sync() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.f == nil {
		return nil
	}
	return r.f.Sync()
}

// Snapshots returns a copy of the recorded series.
func (r *Recorder) Snapshots() []Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Snapshot(nil), r.snaps...)
}

// Close closes the plot file, if any.
func (r *Recorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}
