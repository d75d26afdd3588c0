package core

import (
	"fmt"

	"compdiff/internal/compiler"
	"compdiff/internal/hash"
	"compdiff/internal/vm"
)

// The compile-stage differential oracle: before a program ever runs,
// the k implementations can already disagree — some accept and some
// reject (CompileDivergence), one crashes with an internal compiler
// error (ICE), or all reject but with different diagnostics
// (DiagMismatch). AssembleDifferential records those facts per
// implementation from compiler.CompileAllGuarded's results;
// internal/triage turns them into fingerprinted findings.

// CompileStatus classifies one implementation's compile attempt.
type CompileStatus uint8

const (
	// StatusAccept: the implementation produced a program.
	StatusAccept CompileStatus = iota
	// StatusReject: the implementation refused the program with an
	// ordinary diagnostic.
	StatusReject
	// StatusICE: the implementation crashed (panicked) compiling it.
	StatusICE
)

// String returns the status name.
func (s CompileStatus) String() string {
	switch s {
	case StatusAccept:
		return "accept"
	case StatusReject:
		return "reject"
	default:
		return "ice"
	}
}

// ImplCompile is one implementation's compile-stage record.
type ImplCompile struct {
	Name   string        `json:"name"`
	Status CompileStatus `json:"status"`
	// Diags are the implementation's rendered warnings and errors.
	Diags []string `json:"diags,omitempty"`
	// Error is the compile error text for reject/ICE statuses.
	Error string `json:"error,omitempty"`
	// ICE is the raw panic text when Status is StatusICE.
	ICE string `json:"ice,omitempty"`
}

// CompileOutcome is the compile-stage record of one program across
// the whole implementation set, in suite order.
type CompileOutcome struct {
	Impls []ImplCompile `json:"impls"`
}

// AnyICE reports whether any implementation crashed.
func (co *CompileOutcome) AnyICE() bool {
	for _, im := range co.Impls {
		if im.Status == StatusICE {
			return true
		}
	}
	return false
}

// AllAccepted reports whether every implementation produced a program.
func (co *CompileOutcome) AllAccepted() bool {
	for _, im := range co.Impls {
		if im.Status != StatusAccept {
			return false
		}
	}
	return true
}

// AllRejected reports whether no implementation produced a program.
func (co *CompileOutcome) AllRejected() bool {
	for _, im := range co.Impls {
		if im.Status == StatusAccept {
			return false
		}
	}
	return true
}

// Signature folds the raw per-implementation records into a 64-bit
// identity, the compile-stage analogue of Outcome.Signature. Unlike
// the triage fingerprint it hashes the raw (un-normalized) texts, so
// it distinguishes concrete reproducers within one bucket.
func (co *CompileOutcome) Signature() uint64 {
	d := hash.New128(0xc0de)
	for _, im := range co.Impls {
		d.Write([]byte{byte(im.Status), 0xfe})
		d.Write([]byte(im.Error))
		d.Write([]byte{0xfe})
		d.Write([]byte(im.ICE))
		for _, dg := range im.Diags {
			d.Write([]byte{0xfd})
			d.Write([]byte(dg))
		}
	}
	h1, _ := d.Sum128()
	return h1
}

// AssembleDifferential builds the compile outcome and (when all
// implementations accepted) a fresh Suite from per-implementation
// compile results: compiler.CompileAllGuarded's, or a progcache hit's,
// where the k lowered programs already exist and only the outcome
// classification and the machines need constructing. results must be
// positional with cfgs. When any implementation rejects or crashes,
// the Suite is nil and the CompileOutcome itself is the (potential)
// finding. Each call yields an independent Suite: the *ir.Programs
// are immutable and shared read-only, the machines are new.
//
// The returned error is reserved for harness misuse (fewer than two
// configurations, or results not positional with them);
// per-implementation failures are data, not errors.
func AssembleDifferential(results []compiler.Result, cfgs []compiler.Config, opts Options) (*Suite, *CompileOutcome, error) {
	opts = opts.withDefaults()
	if len(cfgs) < 2 {
		return nil, nil, fmt.Errorf("compdiff: need at least 2 compiler implementations, got %d", len(cfgs))
	}
	if len(results) != len(cfgs) {
		return nil, nil, fmt.Errorf("compdiff: %d compile results for %d configurations", len(results), len(cfgs))
	}

	co := &CompileOutcome{Impls: make([]ImplCompile, len(cfgs))}
	for i, res := range results {
		im := ImplCompile{Name: cfgs[i].Name(), Diags: res.Diags}
		switch {
		case res.ICE != "":
			im.Status = StatusICE
			im.ICE = res.ICE
			im.Error = res.Err.Error()
		case res.Err != nil:
			im.Status = StatusReject
			im.Error = res.Err.Error()
		default:
			im.Status = StatusAccept
		}
		co.Impls[i] = im
	}
	if !co.AllAccepted() {
		return nil, co, nil
	}
	s := &Suite{opts: opts}
	for i, cfg := range cfgs {
		im := &Implementation{Config: cfg, Prog: results[i].Prog, stepLimit: opts.StepLimit}
		im.free = []*vm.Machine{vm.New(results[i].Prog, vm.Options{StepLimit: opts.StepLimit})}
		s.Impls = append(s.Impls, im)
	}
	return s, co, nil
}
