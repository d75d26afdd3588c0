package triage

import (
	"encoding/json"
	"strings"
	"testing"

	"compdiff/internal/compiler"
	"compdiff/internal/core"
)

// divSrc is a known-divergent program: division by a runtime zero.
// O0/O1 personalities trap (SIGFPE), optimized ones return distinct
// poison values.
const divSrc = `
int main() {
    int d = (int)input_size();
    printf("%d\n", 100 / d);
    return 0;
}
`

// stableSrc is fully defined C: every implementation agrees.
const stableSrc = `
int main() {
    printf("ok %ld\n", input_size());
    return 0;
}
`

// buildSource is the front end followed by core.Build over the ten
// default implementations.
func buildSource(src string) (*core.Suite, error) {
	info, err := core.CheckSource(src)
	if err != nil {
		return nil, err
	}
	return core.Build(info, compiler.DefaultSet(), core.Options{})
}

// assembleSource is the front end, the guarded ten-way compile and
// core.AssembleDifferential.
func assembleSource(src string) (*core.Suite, *core.CompileOutcome, error) {
	info, err := core.CheckSource(src)
	if err != nil {
		return nil, nil, err
	}
	cfgs := compiler.DefaultSet()
	return core.AssembleDifferential(compiler.CompileAllGuarded(info, cfgs, 1), cfgs, core.Options{})
}

func mustOutcome(t *testing.T, src string, input []byte) *core.Outcome {
	t.Helper()
	suite, err := buildSource(src)
	if err != nil {
		t.Fatal(err)
	}
	return suite.Run(input)
}

func TestFingerprintShape(t *testing.T) {
	o := mustOutcome(t, divSrc, nil)
	if !o.Diverged {
		t.Fatal("divSrc did not diverge")
	}
	fp := Of(o)
	if len(fp.Partition) != len(o.Hashes) || len(fp.Classes) != len(o.Hashes) {
		t.Fatalf("fingerprint arity %d/%d, want %d", len(fp.Partition), len(fp.Classes), len(o.Hashes))
	}
	// The partition must be canonical: each representative is the
	// smallest index sharing the hash, and representative entries
	// point at themselves.
	for i, rep := range fp.Partition {
		if int(rep) > i {
			t.Fatalf("partition[%d]=%d points forward", i, rep)
		}
		if o.Hashes[rep] != o.Hashes[i] {
			t.Fatalf("partition[%d]=%d but hashes differ", i, rep)
		}
		if fp.Partition[rep] != rep {
			t.Fatalf("representative %d is not self-representative", rep)
		}
	}
	// Stage is the first index that departs from implementation 0.
	wantStage := 0
	for i, h := range o.Hashes {
		if h != o.Hashes[0] {
			wantStage = i
			break
		}
	}
	if fp.Stage != wantStage {
		t.Fatalf("Stage=%d, want %d", fp.Stage, wantStage)
	}
	// O0/O1 trap on division by zero: their class must be crash while
	// the optimized implementations ran to completion.
	if fp.Classes[0] == fp.Classes[2] {
		t.Fatalf("expected crash/ok class split, got classes %v", fp.Classes)
	}
}

func TestFingerprintStability(t *testing.T) {
	a := Of(mustOutcome(t, divSrc, nil))
	b := Of(mustOutcome(t, divSrc, nil))
	if !a.Equal(b) || a.Key() != b.Key() {
		t.Fatalf("fingerprint not stable across runs: %v vs %v", a, b)
	}
	// Different inputs that keep the same disagreement shape land on
	// the same key even though every checksum changed: divSrc's
	// divergence does not depend on the input bytes, only the size
	// staying zero... whereas a different program shape must differ.
	c := Of(mustOutcome(t, `
int main() {
    int x;
    if (input_size() > 100L) { x = 1; }
    printf("%d\n", x);
    return 0;
}
`, nil))
	if a.Equal(c) || a.Key() == c.Key() {
		t.Fatal("distinct divergence shapes collided")
	}
}

func TestFingerprintStringAndJSON(t *testing.T) {
	fp := Of(mustOutcome(t, divSrc, nil))
	s := fp.String()
	if !strings.Contains(s, "part[") || !strings.Contains(s, "class[") {
		t.Fatalf("unexpected String form %q", s)
	}
	data, err := json.Marshal(fp)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Partition []uint8 `json:"partition"`
		Classes   []uint8 `json:"classes"`
		Stage     int     `json:"stage"`
		Key       string  `json:"key"`
		Pretty    string  `json:"pretty"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Key == "" || decoded.Pretty != s || len(decoded.Partition) != len(fp.Partition) {
		t.Fatalf("JSON round-trip lost fields: %s", data)
	}
}
