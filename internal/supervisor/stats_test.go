package supervisor

import (
	"os"
	"path/filepath"
	"testing"
)

// TestLastPlotSnapshot: the plot tail is the supervisor's live
// watermark, so a worker killed mid-append must not hide the last
// complete line behind its torn one.
func TestLastPlotSnapshot(t *testing.T) {
	const (
		line1 = `{"execs":100,"spent_execs":100}`
		line2 = `{"execs":200,"spent_execs":200}`
	)
	for _, tc := range []struct {
		name      string
		data      string
		wantOK    bool
		wantSpent int64
	}{
		{"complete", line1 + "\n" + line2 + "\n", true, 200},
		{"no-final-newline", line1 + "\n" + line2, true, 200},
		{"torn-final-line", line1 + "\n" + line2 + "\n" + `{"execs":300,"spe`, true, 200},
		{"trailing-newlines", line1 + "\n" + line2 + "\n\n\n", true, 200},
		{"only-torn", `{"execs":3`, false, 0},
		{"empty", "", false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "plot.jsonl")
			if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
				t.Fatal(err)
			}
			snap, ok := lastPlotSnapshot(path)
			if ok != tc.wantOK || snap.SpentExecs != tc.wantSpent {
				t.Fatalf("lastPlotSnapshot = (spent %d, %v), want (spent %d, %v)",
					snap.SpentExecs, ok, tc.wantSpent, tc.wantOK)
			}
		})
	}
	if _, ok := lastPlotSnapshot(filepath.Join(t.TempDir(), "missing.jsonl")); ok {
		t.Fatal("a missing plot file reported a snapshot")
	}
}
