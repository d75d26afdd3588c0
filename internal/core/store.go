package core

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"unicode/utf8"
)

// DiffStore collects bug-triggering inputs, the analog of the "diffs/"
// directory CompDiff-AFL++ writes. Inputs are deduplicated by triage
// signature: many inputs trigger the same discrepancy, and manual
// diagnosis starts from one representative per signature (§3.2).
//
// All methods are safe for concurrent use: a sharded campaign merges
// shard-local stores into one shared store at synchronization
// barriers, and concurrent suite runs may feed one store directly.
type DiffStore struct {
	dir string // optional persistence directory; "" keeps all in memory

	mu       sync.Mutex
	bySig    map[uint64]*StoredDiff
	sigOrder []uint64
	total    int
}

// StoredDiff is one unique discrepancy with a representative input.
type StoredDiff struct {
	Signature uint64
	Outcome   *Outcome
	Count     int // inputs seen with this signature
}

// NewDiffStore creates a store. If dir is non-empty, representative
// inputs are also written to <dir>/diffs/.
func NewDiffStore(dir string) *DiffStore {
	return &DiffStore{dir: dir, bySig: map[uint64]*StoredDiff{}}
}

// Add records a diverging outcome. It returns true when the signature
// was new (a fresh unique discrepancy).
func (st *DiffStore) Add(o *Outcome) (bool, error) {
	if !o.Diverged {
		return false, nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.addLocked(o, 1)
}

func (st *DiffStore) addLocked(o *Outcome, count int) (bool, error) {
	st.total += count
	sig := o.Signature()
	if d, ok := st.bySig[sig]; ok {
		d.Count += count
		return false, nil
	}
	st.bySig[sig] = &StoredDiff{Signature: sig, Outcome: o, Count: count}
	st.sigOrder = append(st.sigOrder, sig)
	if st.dir != "" {
		if err := st.persistLocked(o.Input, sig); err != nil {
			return true, err
		}
	}
	return true, nil
}

// persistLocked writes a representative input to <dir>/diffs/. File
// names are derived from this store's discovery index, so a new
// process pointed at an existing DiffDir would regenerate names an
// earlier run already used; O_EXCL turns that silent overwrite into a
// detectable collision, which we resolve by suffixing a run-local
// retry counter (the previous run's representative stays intact). A
// collision on every candidate name skips persistence for this entry
// rather than destroying older evidence.
func (st *DiffStore) persistLocked(input []byte, sig uint64) error {
	dir := filepath.Join(st.dir, "diffs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("id_%06d_sig_%016x", len(st.sigOrder), sig)
	for try := 0; try <= 8; try++ {
		name := base
		if try > 0 {
			name = fmt.Sprintf("%s_r%d", base, try)
		}
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if errors.Is(err, fs.ErrExist) {
			continue
		}
		if err != nil {
			return err
		}
		if _, err := f.Write(input); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

// Absorb merges stored discrepancies (typically a shard-local store's
// delta) into st, summing counts for known signatures. It returns the
// entries whose signatures were new to st. The first persistence
// error is reported; the in-memory merge always completes.
func (st *DiffStore) Absorb(diffs []*StoredDiff) ([]*StoredDiff, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	var fresh []*StoredDiff
	var firstErr error
	for _, d := range diffs {
		isNew, err := st.addLocked(d.Outcome, d.Count)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if isNew {
			fresh = append(fresh, st.bySig[d.Signature])
		}
	}
	return fresh, firstErr
}

// Since returns the stored discrepancies from discovery index `from`
// on — the delta a synchronization barrier hands to Absorb.
func (st *DiffStore) Since(from int) []*StoredDiff {
	st.mu.Lock()
	defer st.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from > len(st.sigOrder) {
		from = len(st.sigOrder)
	}
	out := make([]*StoredDiff, 0, len(st.sigOrder)-from)
	for _, sig := range st.sigOrder[from:] {
		out = append(out, st.bySig[sig])
	}
	return out
}

// Counts snapshots the per-signature input counts.
func (st *DiffStore) Counts() map[uint64]int {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[uint64]int, len(st.bySig))
	for sig, d := range st.bySig {
		out[sig] = d.Count
	}
	return out
}

// Recount overwrites per-signature counts and the pre-dedup total
// with authoritative values. The sharded campaign pool calls it at
// every barrier so the shared store's counts equal the sum over the
// shard-local stores, independent of merge interleaving.
func (st *DiffStore) Recount(counts map[uint64]int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	total := 0
	for _, c := range counts {
		total += c
	}
	st.total = total
	for sig, d := range st.bySig {
		if c, ok := counts[sig]; ok {
			d.Count = c
		}
	}
}

// Unique returns the stored discrepancies in discovery order.
func (st *DiffStore) Unique() []*StoredDiff {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*StoredDiff, 0, len(st.sigOrder))
	for _, sig := range st.sigOrder {
		out = append(out, st.bySig[sig])
	}
	return out
}

// Len is the number of unique discrepancies stored.
func (st *DiffStore) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.sigOrder)
}

// Total is the number of diverging inputs seen (before deduplication).
func (st *DiffStore) Total() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.total
}

// RestoreDiffStore rebuilds a store from checkpointed entries without
// re-persisting them (the inputs already live on disk from the run
// that wrote the checkpoint). Entries keep their discovery order;
// entries may carry nil Outcomes when the checkpoint stored only a
// skeleton (shard-local stores), which keeps dedup and recount
// behavior exact while shedding the input bytes.
func RestoreDiffStore(dir string, diffs []*StoredDiff, total int) *DiffStore {
	st := NewDiffStore(dir)
	for _, d := range diffs {
		cp := *d
		st.bySig[cp.Signature] = &cp
		st.sigOrder = append(st.sigOrder, cp.Signature)
	}
	st.total = total
	return st
}

// Report renders a human-readable bug report for one discrepancy,
// with the three ingredients the paper's reports carry: the input, the
// compiler configurations that reproduce it, and the divergent
// outputs.
func (d *StoredDiff) Report(names []string) string {
	o := d.Outcome
	groups := o.Groups()
	type grp struct {
		impls []int
		out   string
	}
	var gs []grp
	for h, idxs := range groups {
		_ = h
		sort.Ints(idxs)
		gs = append(gs, grp{impls: idxs, out: string(o.Results[idxs[0]].Encode())})
	}
	sort.Slice(gs, func(i, j int) bool { return gs[i].impls[0] < gs[j].impls[0] })

	s := fmt.Sprintf("discrepancy signature %016x (seen on %d inputs)\n", d.Signature, d.Count)
	s += fmt.Sprintf("test input (%d bytes): %q\n", len(o.Input), truncate(o.Input, 64))
	for _, g := range gs {
		s += "reproducers:"
		for _, i := range g.impls {
			s += " [" + names[i] + "]"
		}
		s += "\noutput:\n" + indent(g.out) + "\n"
	}
	return s
}

// truncate cuts b to at most n bytes without splitting a multi-byte
// rune: a cut that lands mid-rune backs up to the rune boundary, so
// truncated report text stays valid UTF-8. Bytes that were already
// invalid UTF-8 in b are kept as-is.
func truncate(b []byte, n int) []byte {
	if len(b) <= n {
		return b
	}
	// Walk back over up to utf8.UTFMax-1 continuation bytes; if they
	// are the prefix of a rune that is valid (and complete) in the
	// original b but extends past n, drop the partial rune.
	for back := 1; back < utf8.UTFMax && back <= n; back++ {
		c := b[n-back]
		if c < 0x80 {
			break // ASCII: the cut is clean
		}
		if c >= 0xC0 { // leading byte of a multi-byte sequence
			if r, size := utf8.DecodeRune(b[n-back:]); r != utf8.RuneError && size > back {
				return b[:n-back]
			}
			break
		}
		// 0x80..0xBF: continuation byte, keep backing up.
	}
	return b[:n]
}

func indent(s string) string {
	out := "    "
	for _, c := range s {
		out += string(c)
		if c == '\n' {
			out += "    "
		}
	}
	return out
}
