package core

// Tests for the compile-stage differential build path: the
// per-implementation outcome record, its helpers and signature, and
// AssembleDifferential's contract — harness misuse is an error,
// implementation failure is data, and the record is positional and
// deterministic regardless of the compile fan-out. Build is pinned to
// the same records: its error is the first rejecting implementation's.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"compdiff/internal/compiler"
)

// assembleSource is the front end, the guarded k-way compile and
// AssembleDifferential: the path compdiff.NewDifferential takes.
func assembleSource(src string, cfgs []compiler.Config, opts Options) (*Suite, *CompileOutcome, error) {
	info, err := CheckSource(src)
	if err != nil {
		return nil, nil, err
	}
	return AssembleDifferential(compiler.CompileAllGuarded(info, cfgs, opts.Parallelism), cfgs, opts)
}

const rejectSplitSrc = `
int main() {
    int d = 1 / 0;
    return d;
}
`

func iceSrc() string {
	return "int main() {\n    int x = 1;\n    int y = x" +
		strings.Repeat("+1", 60) + ";\n    return y;\n}\n"
}

func TestCompileStatusString(t *testing.T) {
	cases := map[CompileStatus]string{
		StatusAccept: "accept",
		StatusReject: "reject",
		StatusICE:    "ice",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("CompileStatus(%d).String() = %q, want %q", s, got, want)
		}
	}
}

func TestBuildDifferentialNeedsTwoImpls(t *testing.T) {
	if _, _, err := assembleSource("int main() { return 0; }",
		compiler.DefaultSet()[:1], Options{}); err == nil {
		t.Fatal("single-implementation differential built without error")
	}
}

func TestBuildSourceDifferentialFrontEndErrors(t *testing.T) {
	if _, _, err := assembleSource("int x = ;;;", compiler.DefaultSet(), Options{}); err == nil ||
		!strings.Contains(err.Error(), "parse") {
		t.Errorf("parse failure not reported as an error: %v", err)
	}
	if _, _, err := assembleSource("int main() { return undeclared; }",
		compiler.DefaultSet(), Options{}); err == nil || !strings.Contains(err.Error(), "check") {
		t.Errorf("sema failure not reported as an error: %v", err)
	}
}

func TestBuildDifferentialAllAccept(t *testing.T) {
	suite, co, err := assembleSource("int main() { printf(\"ok\\n\"); return 0; }",
		compiler.DefaultSet(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if suite == nil {
		t.Fatal("universally-accepted program produced no suite")
	}
	if !co.AllAccepted() || co.AllRejected() || co.AnyICE() {
		t.Errorf("outcome helpers wrong for all-accept: %+v", co)
	}
	if len(co.Impls) != len(compiler.DefaultSet()) {
		t.Errorf("%d impl records for %d configurations", len(co.Impls), len(compiler.DefaultSet()))
	}
	// The suite is live: the program runs and does not diverge.
	if o := suite.Run(nil); o.Diverged {
		t.Error("stable program diverged at run time")
	}
}

func TestBuildDifferentialRejectSplit(t *testing.T) {
	suite, co, err := assembleSource(rejectSplitSrc, compiler.DefaultSet(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if suite != nil {
		t.Fatal("partially-rejected program still produced a suite")
	}
	if co.AllAccepted() || co.AllRejected() || co.AnyICE() {
		t.Errorf("outcome helpers wrong for the reject split: %+v", co)
	}
	var accepts, rejects int
	for i, im := range co.Impls {
		if im.Name != compiler.DefaultSet()[i].Name() {
			t.Errorf("impl %d recorded as %q, want %q (positional order)", i, im.Name, compiler.DefaultSet()[i].Name())
		}
		switch im.Status {
		case StatusAccept:
			accepts++
			if im.Error != "" {
				t.Errorf("%s accepted with an error: %q", im.Name, im.Error)
			}
		case StatusReject:
			rejects++
			if im.Error == "" {
				t.Errorf("%s rejected without an error", im.Name)
			}
		default:
			t.Errorf("%s unexpectedly ICEd", im.Name)
		}
	}
	if accepts == 0 || rejects == 0 {
		t.Errorf("want a genuine split, got %d accepts / %d rejects", accepts, rejects)
	}
}

func TestBuildDifferentialICERecord(t *testing.T) {
	suite, co, err := assembleSource(iceSrc(), compiler.DefaultSet(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if suite != nil {
		t.Fatal("ICE program still produced a suite")
	}
	if !co.AnyICE() {
		t.Fatalf("no ICE recorded: %+v", co)
	}
	for _, im := range co.Impls {
		if im.Status == StatusICE {
			if im.ICE == "" || im.Error == "" {
				t.Errorf("%s ICE record incomplete: %+v", im.Name, im)
			}
		} else if im.ICE != "" {
			t.Errorf("%s carries an ICE text without the status", im.Name)
		}
	}
}

// TestBuildDifferentialParallelDeterminism: the record — order, texts,
// signature — is identical whether implementations compile serially or
// concurrently.
func TestBuildDifferentialParallelDeterminism(t *testing.T) {
	for _, src := range []string{rejectSplitSrc, iceSrc(), "int main() { return 0; }"} {
		_, seq, err := assembleSource(src, compiler.DefaultSet(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, par, err := assembleSource(src, compiler.DefaultSet(), Options{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if seq.Signature() != par.Signature() {
			t.Errorf("signature differs across parallelism: %016x vs %016x", seq.Signature(), par.Signature())
		}
		for i := range seq.Impls {
			a, b := seq.Impls[i], par.Impls[i]
			if a.Name != b.Name || a.Status != b.Status || a.Error != b.Error || a.ICE != b.ICE {
				t.Errorf("impl %d differs across parallelism:\n%+v\n%+v", i, a, b)
			}
		}
	}
}

// TestCompileSignatureDistinguishesRawTexts: the signature is the
// raw-record identity, finer than the triage fingerprint — shifting a
// diagnostic's line number changes it.
func TestCompileSignatureDistinguishesRawTexts(t *testing.T) {
	a := &CompileOutcome{Impls: []ImplCompile{{Name: "x", Status: StatusReject,
		Error: "<source>:3: error: no", Diags: []string{"<source>:3: error: no"}}}}
	b := &CompileOutcome{Impls: []ImplCompile{{Name: "x", Status: StatusReject,
		Error: "<source>:4: error: no", Diags: []string{"<source>:4: error: no"}}}}
	if a.Signature() == b.Signature() {
		t.Error("line-shifted records share a signature")
	}
	if a.Signature() != a.Signature() {
		t.Error("signature is not deterministic")
	}
}

// TestBuildMatchesDifferentialRecords pins Build and the differential
// assembly to the records the separate Build/BuildDifferential
// constructors produced, at compile fan-out 1 and 4. Build refuses the
// reject-split and ICE programs with the first rejecting
// implementation's error, in configuration order. The differential
// record equals the golden in testdata field for field, and the
// golden's signature is the one those constructors returned.
func TestBuildMatchesDifferentialRecords(t *testing.T) {
	cases := []struct {
		name, src, buildErr string
		sig                 uint64
	}{
		{"reject", rejectSplitSrc,
			"compile [gcc -O1]: <source>:3: division by zero [-Werror=div-by-zero]",
			0xa474d0b84d896eab},
		{"ice", iceSrc(),
			"compile [gcc -O2]: internal compiler error: internal compiler error: in simplify_expr, " +
				"at expr.cc:4149: expression nesting depth 49 exceeds 48 at <source>:3 (frame 0xb568a6a6086f786c)",
			0xbadde696175b34fd},
	}
	for _, tc := range cases {
		raw, err := os.ReadFile(filepath.Join("testdata", "compile_outcome_"+tc.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var want CompileOutcome
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		if got := want.Signature(); got != tc.sig {
			t.Fatalf("%s: golden signature %016x, want %016x", tc.name, got, tc.sig)
		}
		info, err := CheckSource(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 4} {
			opts := Options{Parallelism: p}
			suite, err := Build(info, compiler.DefaultSet(), opts)
			if suite != nil || err == nil || err.Error() != tc.buildErr {
				t.Errorf("%s p=%d: Build = %v, %v; want nil, %q", tc.name, p, suite, err, tc.buildErr)
			}
			suite, co, err := AssembleDifferential(compiler.CompileAllGuarded(info, compiler.DefaultSet(), p),
				compiler.DefaultSet(), opts)
			if suite != nil || err != nil {
				t.Fatalf("%s p=%d: AssembleDifferential = %v, %v; want a nil suite and no error", tc.name, p, suite, err)
			}
			if !reflect.DeepEqual(*co, want) {
				t.Errorf("%s p=%d: compile outcome differs from the golden:\n got %+v\nwant %+v", tc.name, p, *co, want)
			}
		}
	}
}
