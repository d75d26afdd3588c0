package fuzz

import (
	"fmt"
	"sort"
)

// State is a fuzzer's complete serializable state: everything that
// influences future fuzzing behavior (queue, coverage map, dedup sets,
// stats, RNG cursors), captured between Run calls. A fresh fuzzer
// built with the same executor and options, after RestoreState, will
// generate the byte-identical execution stream the original would
// have — the property campaign resume leans on.
type State struct {
	// MutCursor and RngCursor are the mutator / splice-stage RNG stream
	// positions (see Mutator.Cursor).
	MutCursor uint64 `json:"mut_cursor"`
	RngCursor uint64 `json:"rng_cursor"`
	// Virgin is the cross-run coverage map (AFL's virgin_bits).
	Virgin []byte `json:"virgin"`
	// Queue is the seed corpus in queue order, including per-seed
	// energy bookkeeping (Execs) and favored flags from the last cull.
	Queue []*Seed `json:"queue"`
	// Hashes is the sorted queue-dedup set (coverage and ForceSeed
	// content fingerprints).
	Hashes []uint64 `json:"hashes"`
	// Crashes are the deduplicated crashing inputs with their results.
	Crashes []*Crash `json:"crashes,omitempty"`
	// Execs, Cycles, and LastNewPath mirror Stats; Seeds and
	// UniqueCrashes are derived from Queue and Crashes.
	Execs       int64 `json:"execs"`
	Cycles      int   `json:"cycles"`
	LastNewPath int64 `json:"last_new_path"`
}

// ExportState captures the fuzzer's state. Call only between Run
// calls (the fuzzer is single-goroutine); the returned state shares no
// memory with the fuzzer.
func (f *Fuzzer) ExportState() *State {
	st := &State{
		MutCursor:   f.mut.Cursor(),
		RngCursor:   f.rngCS.draws,
		Virgin:      append([]byte(nil), f.virgin...),
		Execs:       f.stats.Execs,
		Cycles:      f.stats.Cycles,
		LastNewPath: f.stats.LastNewPath,
	}
	st.Queue = make([]*Seed, len(f.queue))
	for i, s := range f.queue {
		c := *s
		c.Data = append([]byte(nil), s.Data...)
		st.Queue[i] = &c
	}
	st.Hashes = make([]uint64, 0, len(f.hashes))
	for h := range f.hashes {
		st.Hashes = append(st.Hashes, h)
	}
	sort.Slice(st.Hashes, func(i, j int) bool { return st.Hashes[i] < st.Hashes[j] })
	for _, cr := range f.Crashes() { // Crashes() is already deterministic order
		st.Crashes = append(st.Crashes, &Crash{
			Input:  append([]byte(nil), cr.Input...),
			Result: cr.Result.Clone(),
		})
	}
	return st
}

// RestoreState replaces the fuzzer's state with a checkpointed one.
// The fuzzer must have been built with the same options (seed, input
// cap) and an equivalent executor as the one that exported st; the
// RNG cursors are replayed from the construction seeds, so a seed
// mismatch would silently change the stream. Whatever seed ingestion
// the constructor performed is discarded — the restored queue already
// reflects it.
func (f *Fuzzer) RestoreState(st *State) error {
	if st == nil {
		return fmt.Errorf("fuzz: nil state")
	}
	if len(st.Virgin) != len(f.virgin) {
		return fmt.Errorf("fuzz: virgin map is %d bytes, want %d", len(st.Virgin), len(f.virgin))
	}
	if len(st.Queue) == 0 {
		return fmt.Errorf("fuzz: restored queue is empty")
	}
	f.mut.Seek(st.MutCursor)
	f.rngCS.seek(f.opts.Seed^0x5eed, st.RngCursor)
	f.virgin = append(f.virgin[:0], st.Virgin...)
	f.queue = make([]*Seed, len(st.Queue))
	for i, s := range st.Queue {
		c := *s
		c.Data = append([]byte(nil), s.Data...)
		f.queue[i] = &c
	}
	f.hashes = make(map[uint64]bool, len(st.Hashes))
	for _, h := range st.Hashes {
		f.hashes[h] = true
	}
	f.crash = make(map[uint64]*Crash, len(st.Crashes))
	for _, cr := range st.Crashes {
		if cr.Result == nil {
			return fmt.Errorf("fuzz: crash entry without result")
		}
		f.crash[crashSig(cr.Result)] = &Crash{
			Input:  append([]byte(nil), cr.Input...),
			Result: cr.Result.Clone(),
		}
	}
	f.stats = Stats{
		Execs:       st.Execs,
		Cycles:      st.Cycles,
		LastNewPath: st.LastNewPath,
	}
	return nil
}
