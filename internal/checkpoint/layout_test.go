package checkpoint

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestWorkerLayoutShape(t *testing.T) {
	d := WorkerLayout("/farm", 7)
	if d.Root != filepath.Join("/farm", "workers", "worker-007") {
		t.Fatalf("root = %s", d.Root)
	}
	if d.Checkpoint != filepath.Join(d.Root, "checkpoint") ||
		d.Stats != filepath.Join(d.Root, "stats") ||
		d.Log != filepath.Join(d.Root, "worker.log") {
		t.Fatalf("layout = %+v", d)
	}
	// Diff is the worker root: the DiffStore places evidence under
	// <Diff>/diffs/ itself.
	if d.Diff != d.Root {
		t.Fatalf("Diff = %s, want worker root %s", d.Diff, d.Root)
	}
}

func TestEnsureWorkerAndList(t *testing.T) {
	farm := t.TempDir()

	// An empty farm lists no workers and is not an error.
	if ws, err := ListWorkers(farm); err != nil || ws != nil {
		t.Fatalf("empty farm: workers=%v err=%v", ws, err)
	}

	// Create out of order; idempotent re-create must not fail.
	for _, i := range []int{2, 0, 10, 2} {
		d, err := EnsureWorker(farm, i)
		if err != nil {
			t.Fatalf("EnsureWorker(%d): %v", i, err)
		}
		for _, dir := range []string{d.Root, d.Checkpoint, d.Stats} {
			if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
				t.Fatalf("EnsureWorker(%d) did not create %s: %v", i, dir, err)
			}
		}
	}

	// Stray files and non-worker directories are ignored.
	if err := os.WriteFile(filepath.Join(farm, "workers", "worker-001"), []byte("a file, not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(farm, "workers", "notes"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(farm, "workers", "worker-bad"), 0o755); err != nil {
		t.Fatal(err)
	}

	ws, err := ListWorkers(farm)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 2, 10}; !reflect.DeepEqual(ws, want) {
		t.Fatalf("ListWorkers = %v, want %v", ws, want)
	}
}

// TestReadManifestWatermark: the supervisor's cheap post-exit read
// must surface the same manifest Load validates, and report
// ErrNoCheckpoint for a virgin worker directory.
func TestReadManifestWatermark(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadManifest(dir); err == nil {
		t.Fatal("ReadManifest on empty dir succeeded")
	}

	sv, err := NewSaver(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := &State{Version: Version, OptionsHash: 0xabcd, SpentExecs: 1234}
	if err := sv.Save(st); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.SpentExecs != 1234 || m.OptionsHash != 0xabcd || m.Seq != 1 {
		t.Fatalf("manifest = %+v", m)
	}
}
