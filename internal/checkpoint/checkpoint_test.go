package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"compdiff/internal/core"
	"compdiff/internal/fuzz"
	"compdiff/internal/telemetry"
	"compdiff/internal/triage"
	"compdiff/internal/vm"
)

// sampleState builds a representative snapshot exercising every wire
// field: multiple shards, queue entries, crashes, full and skeletal
// diff entries, buckets with signature sets, and telemetry.
func sampleState(seq int) *State {
	outcome := &core.Outcome{
		Input: []byte{0x01, 0xff, 0x00, 0x7f},
		Results: []*vm.Result{
			{Exit: vm.Exited, Stdout: []byte("a=1\n"), Steps: 120},
			{Exit: vm.Exited, Stdout: []byte("a=2\n"), Steps: 130,
				San: &vm.SanReport{Tool: "msan", Kind: "uninit-read", Func: "main", Line: 3}},
		},
		Hashes:   []uint64{0x1111, 0x2222},
		Diverged: true,
	}
	fs := &fuzz.State{
		MutCursor: 12345 + uint64(seq),
		RngCursor: 678,
		Virgin:    make([]byte, 304), // a compact map: readelf's B_fuzz reaches 304 indices
		Queue: []*fuzz.Seed{
			{Data: []byte("seed-a"), CovBits: 9, Hash: 0xaaa, Favored: true, Execs: 3},
			{Data: []byte{0, 1, 2}, CovBits: 4, Hash: 0xbbb},
		},
		Hashes: []uint64{0xaaa, 0xbbb},
		Crashes: []*fuzz.Crash{
			{Input: []byte("boom"), Result: &vm.Result{Exit: vm.SigSegv, Code: 11}},
		},
		Execs:       4000,
		Cycles:      7,
		LastNewPath: 3500,
	}
	fs.Virgin[17] = 0x80
	return &State{
		OptionsHash:   0xdeadbeefcafef00d,
		SpentExecs:    int64(4000 * seq),
		PersistErrors: 2,
		Shards: []ShardState{
			{
				Index:     0,
				Fuzzer:    fs,
				QueueSeen: []uint64{0xaaa, 0xbbb},
				DiffExecs: 8000,
				Diffs:     []*core.StoredDiff{{Signature: 0x51, Count: 5}},
				DiffTotal: 5,
				Buckets: []triage.BucketSnapshot{{
					Fingerprint: triage.Fingerprint{Partition: []uint8{0, 1}, Classes: []uint8{0, 0}, Stage: 2},
					Key:         0x7e57,
					Count:       5,
					Signatures:  []uint64{0x51},
				}},
				BucketTotal: 5,
				Metrics: &MetricsState{
					Execs:     4000,
					DiffExecs: 8000,
					Classes:   [telemetry.NumClasses]int64{3990, 3, 2, 5},
					Impls: []telemetry.ImplSummary{
						{Name: "clang-O0", Outcomes: [telemetry.NumClasses]int64{4000, 0, 0, 0},
							Latency: telemetry.HistogramSnapshot{Count: 4000, Sum: 999, Min: 1, Max: 40}},
					},
				},
			},
			{Index: 1, Dead: true, Fuzzer: fs},
		},
		Diffs:       []*core.StoredDiff{{Signature: 0x51, Outcome: outcome, Count: 5}},
		DiffTotal:   5,
		Buckets:     []triage.BucketSnapshot{{Key: 0x7e57, Outcome: outcome, Count: 5, Signatures: []uint64{0x51}}},
		BucketTotal: 5,
	}
}

// TestSaveLoadRoundTrip pins the core property: snapshot → save →
// load → snapshot is byte-identical.
func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewSaver(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := sampleState(1)
	if err := s.Save(st); err != nil {
		t.Fatal(err)
	}
	got, man, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Seq != 1 || man.OptionsHash != st.OptionsHash || man.Shards != 2 {
		t.Fatalf("manifest %+v", man)
	}
	a, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("round trip not byte-identical:\n%s\nvs\n%s", a, b)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatal("round trip not structurally identical")
	}
}

func TestLoadMissing(t *testing.T) {
	if _, _, err := Load(t.TempDir()); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
	if Exists(t.TempDir()) {
		t.Fatal("Exists on empty dir")
	}
}

// saveOne writes one checkpoint into a fresh dir and returns the dir
// and the manifest's state-file path.
func saveOne(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := NewSaver(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(sampleState(1)); err != nil {
		t.Fatal(err)
	}
	man, err := loadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	return dir, filepath.Join(dir, man.StateFile)
}

// TestLoadDetectsTruncation: a state file cut short (a torn write that
// somehow survived, or disk damage) must fail with ErrCorrupt.
func TestLoadDetectsTruncation(t *testing.T) {
	dir, stateFile := saveOne(t)
	data, err := os.ReadFile(stateFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stateFile, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestLoadDetectsBitFlip: same-size corruption passes the size check
// and must be caught by the checksum.
func TestLoadDetectsBitFlip(t *testing.T) {
	dir, stateFile := saveOne(t)
	data, err := os.ReadFile(stateFile)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x40
	if err := os.WriteFile(stateFile, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestLoadDetectsManifestDamage(t *testing.T) {
	for name, content := range map[string]string{
		"garbage":       "{not json",
		"traversal":     fmt.Sprintf(`{"version":%d,"state_file":"../../etc/passwd"}`, Version),
		"missing-state": fmt.Sprintf(`{"version":%d,"state_file":"state-999999.ckpt"}`, Version),
	} {
		dir, _ := saveOne(t)
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Load(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestLoadRefusesOtherVersions: a checkpoint another format version
// wrote is intact but not this build's to read. Version 1 is what
// older builds wrote: dense 64 KiB virgin maps and seed hashes over
// them. Load and ReadManifest must refuse it as ErrMismatch (the CLI's
// exit 2), never as damage and never by misreading it.
func TestLoadRefusesOtherVersions(t *testing.T) {
	for _, version := range []int{1, Version + 1} {
		dir := t.TempDir()
		st := sampleState(1)
		st.Version = version
		st.Shards[0].Fuzzer.Virgin = make([]byte, vm.CovMapSize)
		data, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		stateFile := "state-000001.ckpt"
		man := Manifest{
			Version:     version,
			OptionsHash: st.OptionsHash,
			Seq:         1,
			StateFile:   stateFile,
			StateSize:   int64(len(data)),
			StateSum:    sumHex(data),
			SpentExecs:  st.SpentExecs,
			Shards:      len(st.Shards),
		}
		mdata, err := json.Marshal(&man)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, stateFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), mdata, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err = Load(dir)
		if !errors.Is(err, ErrMismatch) || errors.Is(err, ErrCorrupt) {
			t.Fatalf("version %d: Load err = %v, want ErrMismatch", version, err)
		}
		if want := fmt.Sprintf("version %d", version); !strings.Contains(err.Error(), want) {
			t.Fatalf("version %d: Load err = %q does not name %q", version, err, want)
		}
		if _, err := ReadManifest(dir); !errors.Is(err, ErrMismatch) {
			t.Fatalf("version %d: ReadManifest err = %v, want ErrMismatch", version, err)
		}
	}
}

// TestSaveGC: after several saves only the manifest and its current
// state file remain — older generations and temp files are collected.
func TestSaveGC(t *testing.T) {
	dir := t.TempDir()
	s, err := NewSaver(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := s.Save(sampleState(i)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 {
		t.Fatalf("dir holds %v, want exactly manifest + one state file", names)
	}
	st, man, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Seq != 3 || st.SpentExecs != sampleState(3).SpentExecs {
		t.Fatalf("latest generation not current: seq=%d spent=%d", man.Seq, st.SpentExecs)
	}
}

// TestSaverResumesSequence: a new saver over an existing directory
// (the resume path) continues the sequence instead of reusing numbers.
func TestSaverResumesSequence(t *testing.T) {
	dir, _ := saveOne(t)
	s2, err := NewSaver(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Seq() != 1 {
		t.Fatalf("resumed saver seq = %d, want 1", s2.Seq())
	}
	if err := s2.Save(sampleState(2)); err != nil {
		t.Fatal(err)
	}
	if _, man, err := Load(dir); err != nil || man.Seq != 2 {
		t.Fatalf("seq after resume-save = %v (err %v), want 2", man, err)
	}
}

// TestFaultInjectionAtomicity is the kill-at-any-instant property: a
// save interrupted after any number of file operations leaves the
// directory loadable — the previous checkpoint intact, never a torn
// or half-visible new one.
func TestFaultInjectionAtomicity(t *testing.T) {
	// Count the operations a full save spends so the sweep covers every
	// interruption point (and one beyond, which must succeed).
	probe := t.TempDir()
	s, err := NewSaver(probe)
	if err != nil {
		t.Fatal(err)
	}
	s.InjectFault(1 << 20)
	if err := s.Save(sampleState(2)); err != nil {
		t.Fatal(err)
	}
	totalOps := (1 << 20) - s.fault.budget
	if totalOps < 4 {
		t.Fatalf("probe counted only %d ops", totalOps)
	}

	for ops := 0; ops <= totalOps; ops++ {
		dir := t.TempDir()
		s, err := NewSaver(dir)
		if err != nil {
			t.Fatal(err)
		}
		first := sampleState(1)
		if err := s.Save(first); err != nil {
			t.Fatal(err)
		}
		s.InjectFault(ops)
		err = s.Save(sampleState(2))
		if ops < totalOps && !errors.Is(err, ErrInjectedFault) {
			t.Fatalf("ops=%d: err = %v, want ErrInjectedFault", ops, err)
		}

		st, man, lerr := Load(dir)
		if lerr != nil {
			t.Fatalf("ops=%d: checkpoint unloadable after simulated kill: %v", ops, lerr)
		}
		switch man.Seq {
		case 1:
			if st.SpentExecs != first.SpentExecs {
				t.Fatalf("ops=%d: old checkpoint content changed", ops)
			}
		case 2:
			if st.SpentExecs != sampleState(2).SpentExecs {
				t.Fatalf("ops=%d: new checkpoint content wrong", ops)
			}
		default:
			t.Fatalf("ops=%d: unexpected seq %d", ops, man.Seq)
		}
	}

	// From an empty directory, an interrupted first save must leave
	// either no checkpoint or a complete one — never ErrCorrupt.
	for ops := 0; ops <= totalOps; ops++ {
		dir := t.TempDir()
		s, err := NewSaver(dir)
		if err != nil {
			t.Fatal(err)
		}
		s.InjectFault(ops)
		_ = s.Save(sampleState(1))
		if _, _, err := Load(dir); err != nil && !errors.Is(err, ErrNoCheckpoint) {
			t.Fatalf("ops=%d: first-save kill left %v, want complete or ErrNoCheckpoint", ops, err)
		}
	}
}

// TestSaveRefusesAfterTrip: once the injected kill fires, the saver
// stays dead — like the process it simulates.
func TestSaveRefusesAfterTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewSaver(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.InjectFault(1)
	if err := s.Save(sampleState(1)); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("err = %v", err)
	}
	if err := s.Save(sampleState(2)); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("post-trip save err = %v, want ErrInjectedFault", err)
	}
}

func TestNewSaverRejectsEmptyDir(t *testing.T) {
	if _, err := NewSaver(""); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("err = %v", err)
	}
}
