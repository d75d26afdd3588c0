package main

// The span recorder of the traced run. Spans are recorded by the
// benchmark itself, around each call it makes into a layer's public
// function; nothing inside the program is instrumented. Each goroutine
// doing work owns one track, so recording takes no lock. Spans stay in
// memory until the run ends, when self times are computed and the
// spans are written out.

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// layer names one span kind. Names before firstMarker are layers of
// the program (module.function); the markers from it on frame the
// benchmark's own work and never count as layer time.
type layer uint8

const (
	lFuzzRun        layer = iota // fuzz.Fuzzer.Run: mutation, coverage bookkeeping, queue
	lFuzzNew                     // fuzz.New: seed ingestion
	lVMBfuzz                     // vm.Machine.RunShared on B_fuzz
	lVMNew                       // vm.New of the B_fuzz machine
	lObserve                     // the campaign's per-exec hook around the oracle
	lDiffExec                    // core.Suite.RunFast
	lStoreAdd                    // core.DiffStore.Add
	lBucketAdd                   // triage.BucketStore.Add
	lMerge                       // barrier merge: Since/Absorb/Recount, ForceSeed
	lTelemetry                   // telemetry.Recorder.Record
	lCkptExport                  // building the checkpoint.State
	lCkptSave                    // checkpoint.Saver.Save
	lCkptLoad                    // checkpoint.Load
	lFrontend                    // parser.Parse + sema.Check
	lBfuzzCompile                // compiler.Compile of B_fuzz
	lCoreBuild                   // core.Build: k lowerings and machines
	lProgenGenerate              // progen.Generate
	lProgcacheGet                // progcache.Cache.Get
	lAssemble                    // core.AssembleDifferential
	lProgramRun                  // core.Suite.Run on a corpus program
	lAddCompile                  // triage.BucketStore.AddCompile
	lFitness                     // evolve.Fitness
	lNextGen                     // evolve.NextGeneration

	mRound // one benchmark round (main track root)
	mWait  // main track blocked on worker tracks
	mEpoch // a worker track's root outside any layer
	numLayers
)

// firstMarker is the first span name that is not a program layer.
const firstMarker = mRound

var layerNames = [numLayers]string{
	lFuzzRun:        "fuzz.run",
	lFuzzNew:        "fuzz.new",
	lVMBfuzz:        "vm.bfuzz",
	lVMNew:          "vm.new",
	lObserve:        "difffuzz.observe",
	lDiffExec:       "core.diff_exec",
	lStoreAdd:       "core.store_add",
	lBucketAdd:      "triage.bucket_add",
	lMerge:          "difffuzz.merge",
	lTelemetry:      "telemetry.record",
	lCkptExport:     "checkpoint.export",
	lCkptSave:       "checkpoint.save",
	lCkptLoad:       "checkpoint.load",
	lFrontend:       "minic.frontend",
	lBfuzzCompile:   "compiler.bfuzz_compile",
	lCoreBuild:      "core.build",
	lProgenGenerate: "progen.generate",
	lProgcacheGet:   "progcache.get",
	lAssemble:       "core.assemble",
	lProgramRun:     "core.program_run",
	lAddCompile:     "triage.add_compile",
	lFitness:        "evolve.fitness",
	lNextGen:        "evolve.next_gen",
	mRound:          "round",
	mWait:           "wait",
	mEpoch:          "epoch",
}

// span is one recorded interval. Times are nanoseconds since the
// tracer's epoch; parent indexes the same track (-1 for a root).
type span struct {
	start, end int64
	parent     int32
	id         uint32 // exec, program or genome id; 0 for set-up and barriers
	name       layer
}

// track is one goroutine's span log. A track is used by one goroutine
// at a time; handing it to another goroutine needs the usual
// happens-before edge (a WaitGroup in this benchmark).
type track struct {
	epoch time.Time
	spans []span
	open  []int32
}

// tracer owns every track of a traced run.
type tracer struct {
	epoch  time.Time
	tracks []*track
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newTrack registers a track. Call it before the goroutine that will
// use the track starts.
func (t *tracer) newTrack() *track {
	tr := &track{epoch: t.epoch}
	t.tracks = append(t.tracks, tr)
	return tr
}

// begin opens a span nested in the innermost open one and returns its
// handle for end.
func (tr *track) begin(name layer, id uint32) int32 {
	parent := int32(-1)
	if n := len(tr.open); n > 0 {
		parent = tr.open[n-1]
	}
	i := int32(len(tr.spans))
	tr.spans = append(tr.spans, span{start: int64(time.Since(tr.epoch)), parent: parent, id: id, name: name})
	tr.open = append(tr.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (tr *track) end(i int32) {
	tr.spans[i].end = int64(time.Since(tr.epoch))
	tr.open = tr.open[:len(tr.open)-1]
}

// profile is what a traced run reduces to.
type profile struct {
	self    [numLayers]int64   // summed self time per span name, ns
	durs    [numLayers][]int64 // per-span durations, only for the names asked for
	busy    int64              // goroutine time spent working, ns
	covered int64              // self time inside layer spans, ns
	spans   int
}

// reduce computes self times: a span's duration minus the durations
// of its direct children. A track's busy time is the duration of its
// roots minus the time the main track spent waiting on workers.
func (t *tracer) reduce(keepDurs ...layer) *profile {
	p := &profile{}
	keep := map[layer]bool{}
	for _, l := range keepDurs {
		keep[l] = true
	}
	for _, tr := range t.tracks {
		self := make([]int64, len(tr.spans))
		for i, s := range tr.spans {
			d := s.end - s.start
			self[i] += d
			if s.parent >= 0 {
				self[s.parent] -= d
			} else {
				p.busy += d
			}
			if keep[s.name] {
				p.durs[s.name] = append(p.durs[s.name], d)
			}
		}
		for i, s := range tr.spans {
			p.self[s.name] += self[i]
			if s.name == mWait {
				p.busy -= s.end - s.start
			}
			if s.name < firstMarker {
				p.covered += self[i]
			}
		}
		p.spans += len(tr.spans)
	}
	for _, d := range p.durs {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	}
	return p
}

// selfSeconds is the summed self time of one layer.
func (p *profile) selfSeconds(l layer) float64 { return float64(p.self[l]) / 1e9 }

// spanShare is the share of busy goroutine time that layer spans
// account for.
func (p *profile) spanShare() float64 {
	if p.busy <= 0 {
		return 0
	}
	return float64(p.covered) / float64(p.busy)
}

// write dumps every span as one tab-separated line: track, name, id,
// parent, start and end in nanoseconds since the tracer's epoch.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "track\tname\tid\tparent\tstart_ns\tend_ns")
	for ti, tr := range t.tracks {
		for _, s := range tr.spans {
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", ti, layerNames[s.name], s.id, s.parent, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
