// Package telemetry is the campaign metrics layer: stdlib-only atomic
// counters and lock-striped latency histograms, plus the AFL-style
// snapshot machinery (plot.jsonl) the fuzzing campaigns emit. The paper's evaluation (§4) reasons about CompDiff almost
// entirely through this kind of data — execs/sec overhead factors,
// timeout classification, diffs-per-budget — so every engine in this
// repo threads a set of these metrics through its hot path.
//
// Everything here is safe for concurrent use and cheap enough for
// per-execution updates: counters are single atomics, and histogram
// observations take one striped mutex chosen by value hash, so
// parallel workers rarely contend.
package telemetry

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n and returns the new value.
func (c *Counter) Add(n int64) int64 { return c.v.Add(n) }

// Inc increments the counter by one and returns the new value.
func (c *Counter) Inc() int64 { return c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Store overwrites the counter — only for restoring a checkpointed
// value before concurrent use resumes.
func (c *Counter) Store(n int64) { c.v.Store(n) }

// Class is the outcome classification of one execution: the triage
// buckets a differential campaign needs to separate (crash vs. hang
// vs. silent diff vs. clean run).
type Class uint8

const (
	// ClassOK is a clean run: normal exit, no divergence.
	ClassOK Class = iota
	// ClassCrash is a crash-like exit (SIGSEGV/SIGFPE/SIGABRT or a
	// sanitizer abort).
	ClassCrash
	// ClassStepLimitHang is a step-limit exit — the VM analog of AFL's
	// hang/timeout bucket.
	ClassStepLimitHang
	// ClassDiff marks an input whose differential cross-check diverged
	// (the CompDiff oracle fired). At the campaign level it dominates
	// the other classes: a diverging input is counted here only.
	ClassDiff

	// NumClasses is the number of outcome classes.
	NumClasses = 4
)

// String names the class as it appears in snapshots and reports.
func (c Class) String() string {
	switch c {
	case ClassOK:
		return "ok"
	case ClassCrash:
		return "crash"
	case ClassStepLimitHang:
		return "step-limit-hang"
	case ClassDiff:
		return "diff"
	default:
		return "unknown"
	}
}

// ClassCounters is one atomic counter per outcome class. Incremented
// exactly once per classified execution, the per-class values always
// sum to the number of executions observed.
type ClassCounters struct{ c [NumClasses]Counter }

// Inc counts one execution in class k.
func (cc *ClassCounters) Inc(k Class) {
	if int(k) < NumClasses {
		cc.c[k].Inc()
	}
}

// Get returns the count for class k.
func (cc *ClassCounters) Get(k Class) int64 {
	if int(k) >= NumClasses {
		return 0
	}
	return cc.c[k].Load()
}

// Snapshot returns all class counts at once.
func (cc *ClassCounters) Snapshot() [NumClasses]int64 {
	var out [NumClasses]int64
	for i := range out {
		out[i] = cc.c[i].Load()
	}
	return out
}

// Store overwrites all class counts — only for restoring a
// checkpointed snapshot before concurrent use resumes.
func (cc *ClassCounters) Store(counts [NumClasses]int64) {
	for i := range cc.c {
		cc.c[i].Store(counts[i])
	}
}

// Total is the sum over classes — the number of classified executions.
func (cc *ClassCounters) Total() int64 {
	var t int64
	for i := range cc.c {
		t += cc.c[i].Load()
	}
	return t
}

// Histogram bucket layout: bucket i holds durations whose nanosecond
// value has bit length i, i.e. [2^(i-1), 2^i). 48 buckets cover up to
// ~3.25 days, far beyond any step-limited VM run.
const (
	histBuckets = 48
	histStripes = 8 // power of two
)

// Histogram is a lock-striped latency histogram with exponential
// buckets. Observations hash to one of histStripes independently
// locked stripes, so concurrent observers (Suite.Run callers on
// different goroutines) rarely serialize on it;
// Snapshot merges the stripes.
type Histogram struct {
	stripes [histStripes]histStripe
}

type histStripe struct {
	mu      sync.Mutex
	count   int64
	sum     int64
	min     int64
	max     int64
	buckets [histBuckets]int64
	// Pad stripes apart so adjacent stripes do not share a cache line.
	_ [5]int64
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	// Value-hash striping: no shared state is touched picking a
	// stripe, and nanosecond-resolution samples spread well.
	s := &h.stripes[(uint64(v)*0x9e3779b97f4a7c15)>>61&(histStripes-1)]
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	s.mu.Lock()
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.count++
	s.sum += v
	s.buckets[b]++
	s.mu.Unlock()
}

// HistogramSnapshot is a merged, immutable view of a Histogram.
type HistogramSnapshot struct {
	Count   int64
	Sum     int64 // nanoseconds
	Min     int64 // nanoseconds; 0 when empty
	Max     int64 // nanoseconds
	Buckets [histBuckets]int64
}

// Snapshot merges all stripes into one consistent-enough view. Each
// stripe is internally consistent; cross-stripe skew is bounded by
// whatever ran during the snapshot itself.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var out HistogramSnapshot
	for i := range h.stripes {
		s := &h.stripes[i]
		s.mu.Lock()
		if s.count > 0 {
			if out.Count == 0 || s.min < out.Min {
				out.Min = s.min
			}
			if s.max > out.Max {
				out.Max = s.max
			}
			out.Count += s.count
			out.Sum += s.sum
			for b := range s.buckets {
				out.Buckets[b] += s.buckets[b]
			}
		}
		s.mu.Unlock()
	}
	return out
}

// Restore overwrites the histogram with a checkpointed snapshot. The
// merged counts land in one stripe — striping is a contention
// optimization, not part of the observable distribution, so Snapshot
// of a restored histogram equals the snapshot it was restored from.
// Only for use before concurrent observation resumes.
func (h *Histogram) Restore(s HistogramSnapshot) {
	for i := range h.stripes {
		st := &h.stripes[i]
		st.mu.Lock()
		st.count, st.sum, st.min, st.max = 0, 0, 0, 0
		st.buckets = [histBuckets]int64{}
		st.mu.Unlock()
	}
	st := &h.stripes[0]
	st.mu.Lock()
	st.count = s.Count
	st.sum = s.Sum
	st.min = s.Min
	st.max = s.Max
	st.buckets = s.Buckets
	st.mu.Unlock()
}

// Merge adds another snapshot into s (sharded campaigns merge their
// per-shard histograms into one pool-wide view).
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	if o.Count == 0 {
		return
	}
	if s.Count == 0 || o.Min < s.Min {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
	s.Count += o.Count
	s.Sum += o.Sum
	for b := range s.Buckets {
		s.Buckets[b] += o.Buckets[b]
	}
}

// Mean is the average sample.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.Sum / s.Count)
}

// Quantile estimates the q-quantile (0 < q <= 1) as the upper bound of
// the bucket holding it — an overestimate by at most 2x, which is all
// an exponential histogram promises.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b, n := range s.Buckets {
		seen += n
		if seen >= rank {
			hi := int64(1) << uint(b)
			if hi-1 > s.Max {
				return time.Duration(s.Max)
			}
			return time.Duration(hi - 1)
		}
	}
	return time.Duration(s.Max)
}
