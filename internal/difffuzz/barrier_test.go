package difffuzz

import (
	"errors"
	"os"
	"testing"

	"compdiff/internal/checkpoint"
)

// openFDs counts this process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count open files: %v", err)
	}
	return len(ents)
}

// TestFailedResumeClosesPlotFile: a resume whose checkpoint passes the
// options-hash check but cannot be restored — here a state saved with
// a matching hash and no mode state — must fail as ErrCorrupt without
// leaking the plot.jsonl handle the pool opened for StatsDir.
func TestFailedResumeClosesPlotFile(t *testing.T) {
	tg := poolTarget(t)
	corpus := compileCorpus()
	for _, tc := range []struct {
		name   string
		hash   uint64
		resume func(ckpt, stats string) error
	}{
		{
			name: "runtime",
			hash: CampaignHash(tg.Src, tg.Seeds, Options{FuzzSeed: 7}),
			resume: func(ckpt, stats string) error {
				_, err := ResumePool(tg.Src, tg.Seeds, Options{FuzzSeed: 7, CheckpointDir: ckpt, StatsDir: stats})
				return err
			},
		},
		{
			name: "compile",
			hash: CompileCampaignHash(corpus, CompilePoolOptions{}),
			resume: func(ckpt, stats string) error {
				_, err := ResumeCompilePool(corpus, CompilePoolOptions{CheckpointDir: ckpt, StatsDir: stats})
				return err
			},
		},
		{
			name: "evolve",
			hash: EvolveCampaignHash(evolveTestOpts()),
			resume: func(ckpt, stats string) error {
				opts := evolveTestOpts()
				opts.CheckpointDir, opts.StatsDir = ckpt, stats
				_, err := ResumeEvolvePool(opts)
				return err
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ckpt, stats := t.TempDir(), t.TempDir()
			saver, err := checkpoint.NewSaver(ckpt)
			if err != nil {
				t.Fatal(err)
			}
			st := &checkpoint.State{Version: checkpoint.Version, OptionsHash: tc.hash}
			if err := saver.Save(st); err != nil {
				t.Fatal(err)
			}
			before := openFDs(t)
			if err := tc.resume(ckpt, stats); !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("resume of a state without mode data: %v, want ErrCorrupt", err)
			}
			if after := openFDs(t); after != before {
				t.Fatalf("failed resume leaked %d file descriptors", after-before)
			}
		})
	}
}
