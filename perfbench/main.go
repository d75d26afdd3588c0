// Command perfbench is CompDiff's campaign benchmark. It drives one
// of four campaign workloads through the public entry points
// (compdiff.NewCampaignPool, NewCompileCampaign, NewEvolveCampaign) in
// a closed loop of fixed-budget rounds for a given number of seconds,
// checks the findings, and prints the end-to-end metrics as the last
// line of standard output. With -trace 1 it then replays the first
// rounds through the layers' public functions with a span around each
// call, checks that the replay reproduces the untraced rounds exactly,
// and prints the per-layer metrics instead.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload fuzz-readelf --seed 1 --seconds 25 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"compdiff/internal/vm"
)

// workload is one campaign load. round runs round r untraced and
// checks its findings; replay re-runs a recorded round through the
// layers' public functions under tr and checks that it reproduces the
// round exactly.
type workload struct {
	name   string
	round  func(b *bench, r int) (*round, error)
	replay func(b *bench, rd *round, tr *tracer) (*replayed, error)
}

var workloads = []workload{
	{name: "fuzz-readelf", round: readelfSpec.round, replay: readelfSpec.replay},
	{name: "fuzz-wireshark", round: wiresharkSpec.round, replay: wiresharkSpec.replay},
	{name: "compile-oracle", round: compileSpec.round, replay: compileSpec.replay},
	{name: "evolve", round: evolveSpec.round, replay: evolveSpec.replay},
}

// round is one untraced fixed-budget campaign.
type round struct {
	index int
	seed  int64
	dir   string // the round's campaign files; kept until replay when tracing
	setup time.Duration
	run   time.Duration
	ops   int64   // execs (fuzz-*) or programs (compile-oracle, evolve)
	alloc uint64  // bytes allocated during the run
	rssMB float64 // resident-set high-water mark of the round
	// buckets and coverage are the round's unique findings and
	// coverage (fuzz queue entries, accepted programs or pass coverage).
	buckets  int
	coverage int
	checked
	// result is the workload's fingerprint of the round, which replay
	// must reproduce.
	result any
}

// measureRun runs a round's campaign, recording its wall time and the
// bytes it allocated.
func measureRun(rd *round, run func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	run()
	rd.run = time.Since(t0)
	runtime.ReadMemStats(&m1)
	rd.alloc = m1.TotalAlloc - m0.TotalAlloc
}

// checked counts correctness checks made; failures lists the ones
// that failed, plus any operation the campaign reports as errored.
type checked struct {
	checks   int64
	failures []string
}

func (c *checked) fail(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

// replayed is what a traced replay adds beyond the profile.
type replayed struct {
	checked
	wall   time.Duration
	counts map[string]float64 // per-layer counts the workload reports
}

// bench holds the run's settings.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // multiplies every round budget (the smoke test shrinks it)
	work     string  // scratch directory of this run, removed at exit
	traceOut string  // where the traced run writes its spans
	maxTrace int     // rounds the traced run replays
	minRound int     // rounds to run even past the deadline

	refs    map[string][]*vm.Machine // reference binaries per fuzz target
	goldens []golden                 // the compile goldens, read once
}

// roundSeed derives round r's campaign seed from the workload seed
// (splitmix64), so every round of every run draws distinct inputs.
func (b *bench) roundSeed(r int) int64 {
	z := uint64(b.seed)*0x9e3779b97f4a7c15 + uint64(r+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// scaled applies the budget scale, keeping at least min.
func (b *bench) scaled(n, min int64) int64 {
	v := int64(float64(n) * b.scale)
	if v < min {
		v = min
	}
	return v
}

func (b *bench) roundDir(kind string, r int) (string, error) {
	dir := filepath.Join(b.work, fmt.Sprintf("%s-%d", kind, r))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(realMain(os.Args[1:])) }

func realMain(args []string) int {
	b, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == b.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", b.workload)
		return 2
	}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(b.work)
	res, st, err := measure(b, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	stampLine, _ := json.Marshal(map[string]any{"stamp": st})
	resLine, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(stampLine))
	fmt.Println(string(resLine))
	if !res.Correct {
		return 1
	}
	return 0
}

func parseFlags(args []string) (*bench, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	b := &bench{}
	fs.StringVar(&b.workload, "workload", "", "workload name")
	fs.Int64Var(&b.seed, "seed", 1, "workload seed")
	fs.Float64Var(&b.seconds, "seconds", 25, "seconds of untraced rounds to measure")
	trace := fs.Int("trace", 0, "1: replay rounds traced and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if *trace != 0 && *trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1")
	}
	if b.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	b.trace = *trace == 1
	b.scale, b.maxTrace, b.minRound = 1, 3, 3
	// Each process gets its own scratch directory, so concurrent runs
	// in one checkout never share campaign files.
	b.work = filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", b.workload, os.Getpid()))
	b.traceOut = filepath.Join(".bench_build", "trace")
	return b, nil
}

// measure runs untraced rounds until the time is spent, then, when
// tracing, replays the first of them traced.
func measure(b *bench, w *workload) (*result, map[string]any, error) {
	var rounds []*round
	start := time.Now()
	for r := 0; ; r++ {
		// Each round starts from a collected heap returned to the OS,
		// with the resident-set high-water mark reset.
		debug.FreeOSMemory()
		resetPeakRSS()
		rd, err := w.round(b, r)
		if err != nil {
			return nil, nil, fmt.Errorf("%s round %d: %w", w.name, r, err)
		}
		rd.rssMB = peakRSSMB()
		rounds = append(rounds, rd)
		fmt.Fprintf(os.Stderr, "%s round %d: setup %v, run %v, %d ops (%.0f/s)\n",
			w.name, r, rd.setup, rd.run, rd.ops, float64(rd.ops)/rd.run.Seconds())
		if !b.trace || r >= b.maxTrace {
			os.RemoveAll(rd.dir)
		}
		if len(rounds) >= b.minRound && time.Since(start).Seconds() >= b.seconds {
			break
		}
	}

	res := &result{Metrics: map[string]metric{}}
	var failures []string
	for _, rd := range rounds {
		res.Attempted += rd.ops + rd.checks
		failures = append(failures, rd.failures...)
	}
	samples := map[string]int{"rounds": len(rounds)}
	if !b.trace {
		var setups, rates, allocs, rss []float64
		var buckets, coverage float64
		for _, rd := range rounds {
			setups = append(setups, rd.setup.Seconds())
			rates = append(rates, float64(rd.ops)/rd.run.Seconds())
			allocs = append(allocs, float64(rd.alloc)/float64(rd.ops))
			rss = append(rss, rd.rssMB)
			buckets += float64(rd.buckets)
			coverage += float64(rd.coverage)
		}
		n := float64(len(rounds))
		res.Failed = int64(len(failures))
		put(res, "setup_s", median(setups), "s")
		put(res, "ops_per_s", median(rates), "1/s")
		put(res, "alloc_bytes_per_op", median(allocs), "B")
		put(res, "peak_rss_mb", median(rss), "MB")
		put(res, "buckets", buckets/n, "count")
		put(res, "coverage", coverage/n, "count")
		put(res, "ok_share", 1-float64(res.Failed)/float64(res.Attempted), "share")
	} else {
		k := b.maxTrace
		if k > len(rounds) {
			k = len(rounds)
		}
		tr := newTracer()
		var untraced, traced time.Duration
		counts := map[string]float64{}
		for _, rd := range rounds[:k] {
			debug.FreeOSMemory()
			rp, err := w.replay(b, rd, tr)
			os.RemoveAll(rd.dir)
			if err != nil {
				return nil, nil, fmt.Errorf("%s replay of round %d: %w", w.name, rd.index, err)
			}
			untraced += rd.setup + rd.run
			traced += rp.wall
			res.Attempted += rp.checks
			failures = append(failures, rp.failures...)
			for name, v := range rp.counts {
				counts[name] += v
			}
		}
		prof := tr.reduce(lDiffExec, lCkptSave, lCkptLoad)
		res.Failed = int64(len(failures))
		layerMetrics(res, prof, counts, k)
		put(res, "trace.overhead", traced.Seconds()/untraced.Seconds()-1, "ratio")
		samples["traced_rounds"] = k
		samples["spans"] = prof.spans
		samples["diff_exec_spans"] = len(prof.durs[lDiffExec])
		samples["checkpoint_saves"] = len(prof.durs[lCkptSave])
		if err := os.MkdirAll(b.traceOut, 0o755); err != nil {
			return nil, nil, err
		}
		if err := tr.write(filepath.Join(b.traceOut, w.name+".spans.tsv")); err != nil {
			return nil, nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	res.Correct = len(failures) == 0
	return res, stamp(b, samples), nil
}

// layerMetrics fills the per-layer metrics from the traced replay.
// Times are summed over the replayed rounds; counts the workloads
// report are summed too, except where the name says otherwise.
func layerMetrics(res *result, p *profile, counts map[string]float64, rounds int) {
	sec := func(name string, l layer) { put(res, name, p.selfSeconds(l), "s") }
	sec("fuzz.self_s", lFuzzRun)
	sec("vm.bfuzz_s", lVMBfuzz)
	sec("core.diff_exec_s", lDiffExec)
	sec("core.store_add_s", lStoreAdd)
	sec("triage.bucket_add_s", lBucketAdd)
	sec("difffuzz.observe_s", lObserve)
	sec("difffuzz.merge_s", lMerge)
	sec("telemetry.record_s", lTelemetry)
	sec("checkpoint.export_s", lCkptExport)
	sec("minic.frontend_s", lFrontend)
	sec("compiler.bfuzz_compile_s", lBfuzzCompile)
	sec("core.build_s", lCoreBuild)
	sec("vm.new_s", lVMNew)
	sec("fuzz.new_s", lFuzzNew)
	sec("progen.generate_s", lProgenGenerate)
	sec("progcache.get_s", lProgcacheGet)
	sec("core.assemble_s", lAssemble)
	sec("core.program_run_s", lProgramRun)
	sec("triage.add_compile_s", lAddCompile)
	sec("evolve.fitness_s", lFitness)
	sec("evolve.next_gen_s", lNextGen)

	diff := p.durs[lDiffExec]
	put(res, "core.diff_exec_ns_p50", quantile(diff, 0.50), "ns")
	put(res, "core.diff_exec_ns_p99", quantile(diff, 0.99), "ns")
	saves := p.durs[lCkptSave]
	put(res, "checkpoint.save_ms_p50", quantile(saves, 0.50)/1e6, "ms")
	put(res, "checkpoint.save_ms_max", quantile(saves, 1)/1e6, "ms")
	put(res, "checkpoint.load_ms", quantile(p.durs[lCkptLoad], 0.50)/1e6, "ms")
	put(res, "checkpoint.bytes", counts["checkpoint.bytes"]/float64(rounds), "B")

	put(res, "fuzz.cov_map_bytes", counts["fuzz.cov_map_bytes"]/float64(rounds), "B")
	put(res, "fuzz.execs", counts["fuzz.execs"], "count")
	put(res, "fuzz.queue", counts["fuzz.queue"]/float64(rounds), "count")
	put(res, "difffuzz.barriers", counts["difffuzz.barriers"], "count")
	put(res, "core.diverged_share", ratio(counts["core.diverged"], counts["core.runs"]), "share")
	hits, misses := counts["progcache.hits"], counts["progcache.misses"]
	put(res, "progcache.hits", hits, "count")
	put(res, "progcache.misses", misses, "count")
	put(res, "progcache.hit_ratio", ratio(hits, hits+misses), "share")
	put(res, "trace.span_share", p.spanShare(), "share")
}

func put(res *result, name string, v float64, unit string) {
	res.Metrics[name] = metric{Value: v, Unit: unit}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of sorted durations.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at
// the current resident set. Where the kernel refuses, peakRSSMB keeps
// reporting the process-lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
