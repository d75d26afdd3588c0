// Package supervisor runs a fleet of fuzzing worker processes under
// one farm root, in the style of an Erlang supervision tree: each
// worker is spawned, watched, and — on any exit short of its budget —
// restarted from its own crash-safe checkpoint, subject to a restart
// intensity limit and exponential backoff. The checkpoint protocol is
// the whole recovery story: a worker killed at any instant (including
// kill -9) resumes from its last synchronization barrier and loses at
// most one barrier interval of work, which the supervisor quantifies
// by reconciling the worker's live watermark, the spent budget in the
// last line of its plot.jsonl, against its durable manifest watermark.
//
// The supervisor never parses worker stdout and holds no fuzzing
// state of its own; everything it reports ( /stats, /buckets,
// /findings ) is read back from the per-worker subtrees that
// checkpoint.WorkerLayout lays out, so the control plane observes
// exactly what a post-mortem of the farm directory would.
package supervisor

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"compdiff/internal/checkpoint"
)

// Worker states, in the order a healthy worker moves through them.
const (
	StateStarting = "starting"
	StateRunning  = "running"
	StateBackoff  = "backoff"
	StatePaused   = "paused"
	StateDone     = "done"    // budget complete
	StateFailed   = "failed"  // restart intensity exceeded; abandoned
	StateStopped  = "stopped" // supervisor shut down or resharded away
)

// Policy bounds worker restarts. A worker that keeps dying is
// restarted with exponentially growing delays, and abandoned outright
// once it has been restarted MaxRestarts times within Window — the
// Erlang restart-intensity rule, applied per worker (one hopeless
// worker must not take the farm down with it).
type Policy struct {
	// MaxRestarts within Window before the worker is abandoned.
	MaxRestarts int
	// Window is the sliding restart-intensity window.
	Window time.Duration
	// BackoffBase is the delay before the first retry after an exit
	// with no durable progress; it doubles per consecutive no-progress
	// exit, capped at BackoffMax. An exit that advanced the durable
	// watermark resets the backoff — the worker is making progress,
	// restart it immediately.
	BackoffBase time.Duration
	BackoffMax  time.Duration
}

// DefaultPolicy tolerates crash loops for about a minute before
// giving up on a worker.
func DefaultPolicy() Policy {
	return Policy{MaxRestarts: 8, Window: time.Minute, BackoffBase: 100 * time.Millisecond, BackoffMax: 10 * time.Second}
}

func (p Policy) withDefaults() Policy {
	d := DefaultPolicy()
	if p.MaxRestarts <= 0 {
		p.MaxRestarts = d.MaxRestarts
	}
	if p.Window <= 0 {
		p.Window = d.Window
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = d.BackoffBase
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = d.BackoffMax
	}
	return p
}

// Config describes a farm.
type Config struct {
	// Farm is the root directory; workers live under Farm/workers/.
	Farm string
	// Workers is the initial fleet size.
	Workers int
	// TotalExecs is each worker's cumulative per-shard execution
	// budget. A worker whose durable checkpoint watermark reaches it is
	// done; any exit before that is a restart candidate. Zero means
	// run-to-clean-exit: exit 0 is done, anything else restarts.
	TotalExecs int64
	// Command builds worker index's process. The command must treat
	// dirs as its private subtree: checkpoint in dirs.Checkpoint,
	// telemetry (plot.jsonl with spent_execs) in dirs.Stats. Stdout and
	// stderr are captured to dirs.Log by the supervisor.
	Command func(index int, dirs checkpoint.WorkerDirs) *exec.Cmd
	Policy  Policy
	// EventLogSize bounds the lifecycle-event ring (default 256).
	EventLogSize int
}

// WorkerSeed derives worker index's base fuzzer seed from the farm
// seed. Worker 0 keeps the farm seed verbatim (a one-worker farm
// explores exactly like a single supervised process), and the mixing
// deliberately differs from difffuzz.ShardSeed — worker i's base seed
// must not collide with worker 0's shard-i seed, or two processes
// would explore identical trajectories.
func WorkerSeed(base int64, index int) int64 {
	if index == 0 {
		return base
	}
	z := uint64(base) ^ 0xd1342543de82ef95
	z += 0x2545f4914f6cdd1d * uint64(index)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// WorkerStatus is one worker's supervision snapshot.
type WorkerStatus struct {
	Index    int    `json:"index"`
	State    string `json:"state"`
	Pid      int    `json:"pid,omitempty"`
	Restarts int    `json:"restarts"`
	// SpentExecs is the durable watermark from the worker's checkpoint
	// manifest — progress that survives any crash.
	SpentExecs int64 `json:"spent_execs"`
	// ReplayExecs is the gap between the plot-tail (live) watermark
	// and the durable one at the last exit: work the restarted process
	// re-executes. Bounded by one checkpoint interval.
	ReplayExecs   int64  `json:"replay_execs,omitempty"`
	LastExit      string `json:"last_exit,omitempty"`
	NextRestartMs int64  `json:"next_restart_unix_ms,omitempty"`
}

type worker struct {
	index int
	dirs  checkpoint.WorkerDirs
	gen   int

	state        string
	pid          int
	cmd          *exec.Cmd
	restarts     []time.Time // restart times inside the intensity window
	restartCount int
	consecStalls int // consecutive exits with no durable progress
	spent        int64
	replay       int64
	lastExit     string
	nextRestart  time.Time
}

// Supervisor owns the fleet. All exported methods are safe for
// concurrent use (the HTTP control plane calls them from handler
// goroutines).
type Supervisor struct {
	cfg    Config
	policy Policy
	events *eventLog

	mu       sync.Mutex
	cond     *sync.Cond
	workers  []*worker
	gen      int
	wg       *sync.WaitGroup
	wake     chan struct{}
	paused   bool
	stopping bool
	started  bool

	dedup dedupCache
}

// New validates the configuration. Start launches the fleet.
func New(cfg Config) (*Supervisor, error) {
	if cfg.Farm == "" {
		return nil, fmt.Errorf("supervisor: empty farm directory")
	}
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("supervisor: need at least one worker, got %d", cfg.Workers)
	}
	if cfg.Command == nil {
		return nil, fmt.Errorf("supervisor: nil Command factory")
	}
	size := cfg.EventLogSize
	if size <= 0 {
		size = 256
	}
	s := &Supervisor{cfg: cfg, policy: cfg.Policy.withDefaults(), events: newEventLog(size), wake: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	s.dedup.entries = map[string]*dedupEntry{}
	return s, nil
}

// Start launches the fleet. Workers whose directories already hold
// checkpoints resume from them — restarting a farm is the same
// operation as restarting a worker.
func (s *Supervisor) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return fmt.Errorf("supervisor: already started")
	}
	if err := s.startWorkersLocked(s.cfg.Workers); err != nil {
		return err
	}
	s.started = true
	return nil
}

// startWorkersLocked builds the worker records for the current
// generation and launches their monitors. Caller holds s.mu.
func (s *Supervisor) startWorkersLocked(n int) error {
	workers := make([]*worker, n)
	for i := 0; i < n; i++ {
		dirs, err := checkpoint.EnsureWorker(s.cfg.Farm, i)
		if err != nil {
			return err
		}
		spent := int64(0)
		if man, err := checkpoint.ReadManifest(dirs.Checkpoint); err == nil {
			spent = man.SpentExecs
		}
		workers[i] = &worker{index: i, dirs: dirs, gen: s.gen, state: StateStarting, spent: spent}
	}
	s.workers = workers
	s.wg = &sync.WaitGroup{}
	for _, w := range workers {
		s.wg.Add(1)
		go s.monitor(w, s.wg)
	}
	return nil
}

// monitor is worker w's supervision loop: park while paused, spawn,
// wait, reconcile watermarks, classify the exit, and either finish or
// restart under the policy. One goroutine per worker per generation.
func (s *Supervisor) monitor(w *worker, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		s.mu.Lock()
		for s.paused && !s.stopping && w.gen == s.gen {
			w.state = StatePaused
			s.cond.Wait()
		}
		if s.stopping || w.gen != s.gen {
			w.state = StateStopped
			s.mu.Unlock()
			return
		}
		w.state = StateStarting
		spentAtStart := w.spent
		s.mu.Unlock()

		cmd := s.cfg.Command(w.index, w.dirs)
		logf, err := os.OpenFile(w.dirs.Log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err == nil {
			cmd.Stdout, cmd.Stderr = logf, logf
		}
		startErr := cmd.Start()
		if logf != nil {
			logf.Close() // the child holds its own descriptor now
		}
		if startErr == nil {
			s.mu.Lock()
			w.cmd, w.pid, w.state = cmd, cmd.Process.Pid, StateRunning
			drain := s.stopping || s.paused || w.gen != s.gen
			s.mu.Unlock()
			s.events.add(w.index, EventSpawn, fmt.Sprintf("pid %d", cmd.Process.Pid))
			if drain {
				// Stop/Pause/Reshard raced with the spawn and their SIGTERM
				// sweeps missed this brand-new pid; re-deliver.
				_ = cmd.Process.Signal(syscall.SIGTERM)
			}
			startErr = cmd.Wait()
		}

		// Reconcile the watermarks: the manifest is the durable truth,
		// the plot tail is how far the dead process had actually gotten.
		durable := int64(0)
		if man, err := checkpoint.ReadManifest(w.dirs.Checkpoint); err == nil {
			durable = man.SpentExecs
		}
		live := durable
		if snap, ok := lastPlotSnapshot(filepath.Join(w.dirs.Stats, "plot.jsonl")); ok && snap.SpentExecs > live {
			live = snap.SpentExecs
		}

		s.mu.Lock()
		w.cmd, w.pid = nil, 0
		w.spent, w.replay = durable, live-durable
		w.lastExit = describeExit(startErr)
		paused, stopping, genOK := s.paused, s.stopping, w.gen == s.gen
		s.mu.Unlock()
		s.events.add(w.index, EventExit, fmt.Sprintf("%s, spent %d", w.lastExit, durable))
		if live > durable {
			s.events.add(w.index, EventReplayGap,
				fmt.Sprintf("live %d vs checkpoint %d: %d execs replay on restart", live, durable, live-durable))
		}

		if s.cfg.TotalExecs > 0 && durable >= s.cfg.TotalExecs ||
			s.cfg.TotalExecs == 0 && startErr == nil && !paused && !stopping && genOK {
			s.setState(w, StateDone)
			s.events.add(w.index, EventDone, fmt.Sprintf("spent %d", durable))
			return
		}
		if stopping || !genOK {
			s.setState(w, StateStopped)
			return
		}
		if paused {
			continue // park at the top of the loop
		}

		// Restart path: intensity check, then backoff.
		now := time.Now()
		s.mu.Lock()
		if durable > spentAtStart {
			w.consecStalls = 0
		} else {
			w.consecStalls++
		}
		live2 := w.restarts[:0]
		for _, t := range w.restarts {
			if now.Sub(t) < s.policy.Window {
				live2 = append(live2, t)
			}
		}
		w.restarts = live2
		if len(w.restarts) >= s.policy.MaxRestarts {
			w.state = StateFailed
			s.mu.Unlock()
			s.events.add(w.index, EventGiveUp,
				fmt.Sprintf("%d restarts within %s", s.policy.MaxRestarts, s.policy.Window))
			return
		}
		w.restarts = append(w.restarts, now)
		w.restartCount++
		var delay time.Duration
		if w.consecStalls > 0 {
			delay = s.policy.BackoffBase << uint(w.consecStalls-1)
			if delay > s.policy.BackoffMax || delay <= 0 {
				delay = s.policy.BackoffMax
			}
			w.state = StateBackoff
			w.nextRestart = now.Add(delay)
		}
		wake := s.wake
		s.mu.Unlock()

		if delay > 0 {
			s.events.add(w.index, EventBackoff, fmt.Sprintf("%s (stall %d)", delay, w.consecStalls))
			select {
			case <-time.After(delay):
			case <-wake:
			}
		}
		s.events.add(w.index, EventRestart, fmt.Sprintf("restart %d", w.restartCount))
	}
}

func (s *Supervisor) setState(w *worker, state string) {
	s.mu.Lock()
	w.state = state
	s.mu.Unlock()
}

func describeExit(err error) string {
	if err == nil {
		return "exit 0"
	}
	if ee, ok := err.(*exec.ExitError); ok {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() {
			return fmt.Sprintf("signal %s", ws.Signal())
		}
		return fmt.Sprintf("exit %d", ee.ExitCode())
	}
	return err.Error()
}

// signalAllLocked delivers sig to every live worker process.
func (s *Supervisor) signalAllLocked(sig syscall.Signal) {
	for _, w := range s.workers {
		if w.cmd != nil && w.cmd.Process != nil {
			_ = w.cmd.Process.Signal(sig)
		}
	}
}

// wakeAllLocked interrupts backoff sleeps.
func (s *Supervisor) wakeAllLocked() {
	close(s.wake)
	s.wake = make(chan struct{})
}

// Pause drains the farm: every worker receives SIGTERM, stops at its
// next synchronization barrier, checkpoints, and exits; monitors park
// instead of restarting. No work is lost — Resume (or a whole new
// supervisor) picks up from the checkpoints.
func (s *Supervisor) Pause() {
	s.mu.Lock()
	if s.paused || s.stopping {
		s.mu.Unlock()
		return
	}
	s.paused = true
	s.signalAllLocked(syscall.SIGTERM)
	s.wakeAllLocked()
	s.mu.Unlock()
	s.events.add(FarmWorker, EventPause, "draining at barriers")
}

// Resume unparks a paused farm.
func (s *Supervisor) Resume() {
	s.mu.Lock()
	if !s.paused || s.stopping {
		s.mu.Unlock()
		return
	}
	s.paused = false
	s.cond.Broadcast()
	s.mu.Unlock()
	s.events.add(FarmWorker, EventResume, "")
}

// Reshard drains the fleet at its barriers, then relaunches with n
// workers. Shrinking strands no findings: surplus worker directories
// stay on disk and the control plane keeps merging them; growing
// starts fresh workers alongside resumed ones. Blocks until the old
// generation has fully drained and the new one is launched.
func (s *Supervisor) Reshard(n int) error {
	if n < 1 {
		return fmt.Errorf("supervisor: need at least one worker, got %d", n)
	}
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		return fmt.Errorf("supervisor: stopping")
	}
	if !s.started {
		s.mu.Unlock()
		return fmt.Errorf("supervisor: not started")
	}
	old := len(s.workers)
	s.gen++
	s.signalAllLocked(syscall.SIGTERM)
	s.cond.Broadcast()
	s.wakeAllLocked()
	wg := s.wg
	s.mu.Unlock()

	// Old-generation monitors observe the bump — parked ones via the
	// broadcast, running ones at their worker's drain exit — and
	// return; a paused farm reshards parked.
	wg.Wait()

	s.mu.Lock()
	err := s.startWorkersLocked(n)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	s.events.add(FarmWorker, EventReshard, fmt.Sprintf("%d -> %d workers", old, n))
	return nil
}

// Stop shuts the farm down: SIGTERM everything (drain at barriers),
// wait for the monitors, and past the context deadline escalate to
// SIGKILL — which is safe, that is what the checkpoints are for.
func (s *Supervisor) Stop(ctx context.Context) error {
	s.mu.Lock()
	if s.stopping {
		wg := s.wg
		s.mu.Unlock()
		wg.Wait()
		return nil
	}
	s.stopping = true
	s.signalAllLocked(syscall.SIGTERM)
	s.cond.Broadcast()
	s.wakeAllLocked()
	wg := s.wg
	s.mu.Unlock()
	s.events.add(FarmWorker, EventStop, "")

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		s.signalAllLocked(syscall.SIGKILL)
		s.mu.Unlock()
		<-done
		return fmt.Errorf("supervisor: drain deadline exceeded, workers killed (checkpoints hold their progress)")
	}
}

// Paused reports whether the farm is draining/parked.
func (s *Supervisor) Paused() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.paused
}

// Status snapshots every worker's supervision state. The in-memory
// watermark only advances at exits, so for live workers the durable
// watermark is re-read from the checkpoint manifest — Status always
// reports progress a crash could not lose.
func (s *Supervisor) Status() []WorkerStatus {
	s.mu.Lock()
	out := make([]WorkerStatus, len(s.workers))
	dirs := make([]checkpoint.WorkerDirs, len(s.workers))
	for i, w := range s.workers {
		ws := WorkerStatus{
			Index: w.index, State: w.state, Pid: w.pid, Restarts: w.restartCount,
			SpentExecs: w.spent, ReplayExecs: w.replay, LastExit: w.lastExit,
		}
		if w.state == StateBackoff {
			ws.NextRestartMs = w.nextRestart.UnixMilli()
		}
		out[i] = ws
		dirs[i] = w.dirs
	}
	s.mu.Unlock()
	for i := range out {
		if man, err := checkpoint.ReadManifest(dirs[i].Checkpoint); err == nil && man.SpentExecs > out[i].SpentExecs {
			out[i].SpentExecs = man.SpentExecs
		}
	}
	return out
}

// Events returns the retained lifecycle events after the watermark,
// and whether older ones were evicted from the ring.
func (s *Supervisor) Events(since int64) ([]Event, bool) {
	return s.events.since(since)
}
