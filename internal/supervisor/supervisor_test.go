package supervisor

// Process-level supervision tests using the helper-process pattern:
// the test binary re-execs itself as a scriptable fake worker
// (SUPERVISOR_FAKE_WORKER=1) that speaks the real hand-off protocol —
// checkpoint manifests for the durable watermark, plot.jsonl lines
// for the live one, SIGTERM-drain for pause — without the cost of a real
// fuzzing campaign.

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"syscall"
	"testing"
	"time"

	"compdiff/internal/checkpoint"
	"compdiff/internal/difffuzz"
	"compdiff/internal/telemetry"
)

func TestMain(m *testing.M) {
	if os.Getenv("SUPERVISOR_FAKE_WORKER") == "1" {
		os.Exit(fakeWorker())
	}
	os.Exit(m.Run())
}

// fakeWorker simulates one supervised worker: every interval it
// advances its spent-exec counter by one step (a "barrier"), appends a
// plot line, and checkpoints every second barrier — so a crash
// between checkpoints leaves the live watermark ahead of the durable
// one, exactly like a kill -9 mid-campaign. SIGTERM drains: save and
// exit 0. Modes: "run" (to completion), "fail" (exit 1 at once),
// "crash-at" (exit 1 once spent reaches FAKE_CRASH_AT, after the
// plot line but before the checkpoint).
func fakeWorker() int {
	mode := os.Getenv("FAKE_MODE")
	if mode == "fail" {
		return 1
	}
	total, _ := strconv.ParseInt(os.Getenv("FAKE_TOTAL"), 10, 64)
	step, _ := strconv.ParseInt(os.Getenv("FAKE_STEP"), 10, 64)
	intervalMs, _ := strconv.Atoi(os.Getenv("FAKE_INTERVAL_MS"))
	crashAt, _ := strconv.ParseInt(os.Getenv("FAKE_CRASH_AT"), 10, 64)
	ckDir := os.Getenv("FAKE_CHECKPOINT")

	sv, err := checkpoint.NewSaver(ckDir)
	if err != nil {
		return 1
	}
	rec, err := telemetry.NewRecorder(os.Getenv("FAKE_STATS"))
	if err != nil {
		return 1
	}
	spent := int64(0)
	if man, err := checkpoint.ReadManifest(ckDir); err == nil {
		spent = man.SpentExecs
	}
	save := func() {
		_ = sv.Save(&checkpoint.State{OptionsHash: 0xfa4e, SpentExecs: spent})
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	barrier := 0
	for spent < total {
		select {
		case <-time.After(time.Duration(intervalMs) * time.Millisecond):
		case <-sig:
			save()
			return 0
		}
		spent += step
		barrier++
		rec.Record(telemetry.Snapshot{SpentExecs: spent})
		if mode == "crash-at" && spent >= crashAt && spent < total {
			return 1 // plot line written, checkpoint (maybe) behind
		}
		if barrier%2 == 0 {
			save()
		}
	}
	save()
	return 0
}

// fakeCommand builds a Command factory that re-execs this test binary
// as a fake worker.
func fakeCommand(mode string, total, step int64, intervalMs int, extra ...string) func(int, checkpoint.WorkerDirs) *exec.Cmd {
	return func(index int, dirs checkpoint.WorkerDirs) *exec.Cmd {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(),
			"SUPERVISOR_FAKE_WORKER=1",
			"FAKE_MODE="+mode,
			"FAKE_CHECKPOINT="+dirs.Checkpoint,
			"FAKE_STATS="+dirs.Stats,
			fmt.Sprintf("FAKE_TOTAL=%d", total),
			fmt.Sprintf("FAKE_STEP=%d", step),
			fmt.Sprintf("FAKE_INTERVAL_MS=%d", intervalMs),
		)
		cmd.Env = append(cmd.Env, extra...)
		return cmd
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func allIn(states []WorkerStatus, want string) bool {
	for _, ws := range states {
		if ws.State != want {
			return false
		}
	}
	return len(states) > 0
}

func TestSupervisorRunsFleetToCompletion(t *testing.T) {
	s, err := New(Config{
		Farm: t.TempDir(), Workers: 2, TotalExecs: 600,
		Command: fakeCommand("run", 600, 200, 5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "both workers done", func() bool { return allIn(s.Status(), StateDone) })

	for _, ws := range s.Status() {
		if ws.SpentExecs != 600 {
			t.Fatalf("worker %d spent %d, want 600", ws.Index, ws.SpentExecs)
		}
		if ws.Restarts != 0 {
			t.Fatalf("worker %d restarted %d times during a clean run", ws.Index, ws.Restarts)
		}
	}
	if fs := s.Stats(); fs.SpentExecs != 1200 {
		t.Fatalf("farm spent %d, want 1200", fs.SpentExecs)
	}
	events, gap := s.Events(0)
	if gap {
		t.Fatal("event ring reported a gap from watermark 0")
	}
	kinds := map[string]int{}
	for _, ev := range events {
		kinds[ev.Kind]++
	}
	if kinds[EventSpawn] != 2 || kinds[EventDone] != 2 {
		t.Fatalf("event kinds = %v, want 2 spawns and 2 dones", kinds)
	}
	if err := s.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSupervisorRestartsKilledWorker is the acceptance property in
// miniature: kill -9 a worker mid-campaign; the supervisor restarts
// it from its checkpoint, reports the replay gap between the
// plot-tail and durable watermarks, and the fleet still converges to
// the full budget.
func TestSupervisorRestartsKilledWorker(t *testing.T) {
	s, err := New(Config{
		Farm: t.TempDir(), Workers: 1, TotalExecs: 2000,
		Command: fakeCommand("run", 2000, 100, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	// Let it make some durable progress, then kill -9.
	waitFor(t, 10*time.Second, "first checkpoint", func() bool { return s.Status()[0].SpentExecs > 0 })
	var pid int
	waitFor(t, 5*time.Second, "running pid", func() bool { pid = s.Status()[0].Pid; return pid > 0 })
	if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 15*time.Second, "worker done after kill", func() bool { return s.Status()[0].State == StateDone })
	ws := s.Status()[0]
	if ws.Restarts < 1 {
		t.Fatalf("killed worker was not restarted: %+v", ws)
	}
	if ws.SpentExecs != 2000 {
		t.Fatalf("fleet converged to %d execs, want the full 2000", ws.SpentExecs)
	}
	events, _ := s.Events(0)
	var sawExit, sawRestart bool
	for _, ev := range events {
		switch ev.Kind {
		case EventExit:
			sawExit = true
		case EventRestart:
			sawRestart = true
		}
	}
	if !sawExit || !sawRestart {
		t.Fatalf("missing exit/restart events: %+v", events)
	}
	if err := s.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSupervisorReportsReplayGap: a crash after a plot line but
// before the next checkpoint must surface as a replay-gap event and a
// nonzero ReplayExecs — the "at most one sync interval lost" bound
// made visible.
func TestSupervisorReportsReplayGap(t *testing.T) {
	// Checkpoints land on even barriers (200, 400, ...); crashing at
	// spent=300 leaves plot tail 300 vs durable 200.
	s, err := New(Config{
		Farm: t.TempDir(), Workers: 1, TotalExecs: 1000,
		Command: fakeCommand("crash-at", 1000, 100, 5, "FAKE_CRASH_AT=300"),
		Policy:  Policy{BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	var gapEv *Event
	waitFor(t, 10*time.Second, "replay-gap event", func() bool {
		events, _ := s.Events(0)
		for i := range events {
			if events[i].Kind == EventReplayGap {
				gapEv = &events[i]
				return true
			}
		}
		return false
	})
	if gapEv.Worker != 0 {
		t.Fatalf("replay gap attributed to worker %d", gapEv.Worker)
	}
	if err := s.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	// After the drain, the durable watermark kept everything up to the
	// last checkpoint; nothing before it was lost.
	if ws := s.Status()[0]; ws.SpentExecs < 200 {
		t.Fatalf("durable watermark regressed: %+v", ws)
	}
}

// TestSupervisorGivesUpOnCrashLoop: a worker that dies instantly
// without progress must hit the restart-intensity limit and be
// abandoned — with backoff events in between — not restarted forever.
func TestSupervisorGivesUpOnCrashLoop(t *testing.T) {
	s, err := New(Config{
		Farm: t.TempDir(), Workers: 1, TotalExecs: 1000,
		Command: fakeCommand("fail", 0, 0, 0),
		Policy:  Policy{MaxRestarts: 3, Window: time.Minute, BackoffBase: time.Millisecond, BackoffMax: 4 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "worker abandoned", func() bool { return s.Status()[0].State == StateFailed })

	ws := s.Status()[0]
	if ws.Restarts != 3 {
		t.Fatalf("worker restarted %d times before give-up, want 3", ws.Restarts)
	}
	events, _ := s.Events(0)
	kinds := map[string]int{}
	for _, ev := range events {
		kinds[ev.Kind]++
	}
	if kinds[EventGiveUp] != 1 {
		t.Fatalf("want exactly one give-up event, got %v", kinds)
	}
	if kinds[EventBackoff] == 0 {
		t.Fatal("no backoff events before give-up")
	}
	// Backoff must grow: each consecutive no-progress exit doubles it.
	var delays []string
	for _, ev := range events {
		if ev.Kind == EventBackoff {
			delays = append(delays, ev.Detail)
		}
	}
	if len(delays) >= 2 && delays[0] == delays[1] {
		t.Fatalf("backoff did not grow: %v", delays)
	}
	if err := s.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSupervisorPauseResume: Pause drains every worker at a barrier
// (SIGTERM → checkpoint → exit 0) and parks the monitors; Resume
// relaunches from the checkpoints with no durable progress lost.
func TestSupervisorPauseResume(t *testing.T) {
	s, err := New(Config{
		Farm: t.TempDir(), Workers: 2, TotalExecs: 100000,
		Command: fakeCommand("run", 100000, 50, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "workers running with progress", func() bool {
		st := s.Status()
		return allIn(st, StateRunning) && st[0].SpentExecs+st[1].SpentExecs > 0
	})

	s.Pause()
	waitFor(t, 10*time.Second, "workers parked", func() bool { return allIn(s.Status(), StatePaused) })
	spentAtPause := s.Status()[0].SpentExecs + s.Status()[1].SpentExecs
	if spentAtPause == 0 {
		t.Fatal("drain lost all durable progress")
	}
	for _, ws := range s.Status() {
		if ws.Pid != 0 {
			t.Fatalf("paused worker still has a live pid: %+v", ws)
		}
	}
	// Parked means parked: no new spawns while paused.
	evBefore, _ := s.Events(0)
	time.Sleep(100 * time.Millisecond)
	evAfter, _ := s.Events(0)
	if len(evAfter) != len(evBefore) {
		t.Fatalf("events while paused: %+v", evAfter[len(evBefore):])
	}

	s.Resume()
	waitFor(t, 10*time.Second, "workers running again past pause point", func() bool {
		st := s.Status()
		return allIn(st, StateRunning) && st[0].SpentExecs+st[1].SpentExecs >= spentAtPause
	})
	if err := s.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSupervisorReshard: resharding drains the fleet at barriers and
// relaunches with the new width; kept workers resume their own
// checkpoints (durable watermark preserved).
func TestSupervisorReshard(t *testing.T) {
	farm := t.TempDir()
	s, err := New(Config{
		Farm: farm, Workers: 1, TotalExecs: 100000,
		Command: fakeCommand("run", 100000, 50, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "worker progress", func() bool { return s.Status()[0].SpentExecs > 0 })
	spentBefore := s.Status()[0].SpentExecs

	if err := s.Reshard(2); err != nil {
		t.Fatal(err)
	}
	st := s.Status()
	if len(st) != 2 {
		t.Fatalf("resharded fleet has %d workers, want 2", len(st))
	}
	if st[0].SpentExecs < spentBefore {
		t.Fatalf("worker 0 lost durable progress across reshard: %d < %d", st[0].SpentExecs, spentBefore)
	}
	waitFor(t, 10*time.Second, "both workers running", func() bool { return allIn(s.Status(), StateRunning) })
	waitFor(t, 10*time.Second, "new worker progress", func() bool { return s.Status()[1].SpentExecs > 0 })

	if err := s.Reshard(0); err == nil {
		t.Fatal("Reshard(0) accepted")
	}
	if err := s.Stop(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Findings/stats still see both subtrees after any future shrink:
	// the layout enumerates the farm directory, not the live fleet.
	if got, _ := checkpoint.ListWorkers(farm); len(got) != 2 {
		t.Fatalf("farm has %d worker subtrees, want 2", len(got))
	}
}

// TestSupervisorStopEscalates: a worker that ignores SIGTERM is
// SIGKILLed once the drain deadline passes, and Stop reports it.
func TestSupervisorStopEscalates(t *testing.T) {
	s, err := New(Config{
		Farm: t.TempDir(), Workers: 1, TotalExecs: 100000,
		Command: func(index int, dirs checkpoint.WorkerDirs) *exec.Cmd {
			// A worker that traps-and-ignores SIGTERM and never exits.
			cmd := exec.Command("/bin/sh", "-c", "trap '' TERM; while true; do sleep 0.05; done")
			return cmd
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "worker running", func() bool { return s.Status()[0].Pid > 0 })

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := s.Stop(ctx); err == nil {
		t.Fatal("Stop returned nil despite an unkillable-by-TERM worker")
	}
	if st := s.Status()[0].State; st != StateStopped {
		t.Fatalf("worker state after escalated stop = %s", st)
	}
}

// TestWorkerSeedDistinctFromShardSeeds pins the collision freedom the
// farm depends on: worker i's base seed must differ from every shard
// seed worker 0 derives, or two processes would fuzz identically.
func TestWorkerSeedDistinctFromShardSeeds(t *testing.T) {
	const base = 7
	if WorkerSeed(base, 0) != base {
		t.Fatal("worker 0 must keep the farm seed verbatim")
	}
	seen := map[int64]string{}
	for w := 0; w < 16; w++ {
		ws := WorkerSeed(base, w)
		if prev, dup := seen[ws]; dup {
			t.Fatalf("worker %d seed collides with %s", w, prev)
		}
		seen[ws] = fmt.Sprintf("worker %d", w)
		// Every shard seed derived from every worker seed must also be
		// globally unique.
		for sh := 1; sh < 8; sh++ {
			ss := difffuzz.ShardSeed(ws, sh)
			if prev, dup := seen[ss]; dup {
				t.Fatalf("worker %d shard %d seed collides with %s", w, sh, prev)
			}
			seen[ss] = fmt.Sprintf("worker %d shard %d", w, sh)
		}
	}
}

func TestEventLogRingAndGap(t *testing.T) {
	l := newEventLog(4)
	for i := 0; i < 10; i++ {
		l.add(0, EventSpawn, fmt.Sprintf("pid %d", i))
	}
	// Watermark far behind the ring: only the retained tail comes
	// back, flagged as gapped.
	events, gap := l.since(2)
	if !gap {
		t.Fatal("eviction not reported as a gap")
	}
	if len(events) != 4 || events[0].Seq != 7 || events[3].Seq != 10 {
		t.Fatalf("retained tail = %+v", events)
	}
	// Watermark at the ring edge: contiguous, no gap.
	events, gap = l.since(6)
	if gap || len(events) != 4 {
		t.Fatalf("contiguous read: gap=%v events=%d", gap, len(events))
	}
	// Fully caught up.
	events, gap = l.since(10)
	if gap || len(events) != 0 {
		t.Fatalf("caught-up read: gap=%v events=%d", gap, len(events))
	}
}
