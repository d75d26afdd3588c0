package triage

import (
	"strings"
	"testing"

	"compdiff/internal/compiler"
)

func TestBucketStoreDedup(t *testing.T) {
	bs := NewBucketStore()
	o := mustOutcome(t, divSrc, nil)
	b1, fresh := bs.Add(o)
	if !fresh || b1 == nil {
		t.Fatal("first Add must open a bucket")
	}
	b2, fresh := bs.Add(mustOutcome(t, divSrc, nil))
	if fresh || b2 != b1 {
		t.Fatal("same fingerprint must land in the same bucket")
	}
	if bs.Len() != 1 || bs.Total() != 2 || b1.Count != 2 {
		t.Fatalf("Len=%d Total=%d Count=%d, want 1/2/2", bs.Len(), bs.Total(), b1.Count)
	}
	// Non-diverging outcomes are ignored.
	if b, fresh := bs.Add(mustOutcome(t, stableSrc, nil)); b != nil || fresh {
		t.Fatal("non-diverging outcome opened a bucket")
	}
	if got := bs.Keys(); len(got) != 1 || got[0] != b1.Key {
		t.Fatalf("Keys()=%v", got)
	}
}

// TestBucketCoarserThanSignature pins the dedup motivation: two
// findings whose raw triage signatures differ (different exit kinds)
// but whose partition and outcome classes agree merge into one
// bucket, with the signature diversity recorded on the bucket.
func TestBucketCoarserThanSignature(t *testing.T) {
	// Input byte selects the crash flavor: division by zero (SIGFPE)
	// or a double free (SIGABRT at O0/O1, silent corruption at O2+).
	// Either way the four unoptimized implementations crash with
	// empty stdout while the six optimized ones print one
	// poison-derived line each, so the partition and the
	// per-implementation classes coincide while the exit kinds — and
	// therefore the raw signatures — differ.
	const src = `
int main() {
    char buf[4];
    long n = read_input(buf, 4L);
    int d = (int)(n % 1L);
    if (n >= 1 && buf[0] == 'w') {
        char* p = (char*)malloc(8L);
        free(p);
        free(p);
        printf("w %d\n", 100 / d);
        return 0;
    }
    printf("d %d\n", 100 / d);
    return 0;
}
`
	suite, err := buildSource(src)
	if err != nil {
		t.Fatal(err)
	}
	oDiv := suite.Run(nil)
	oFree := suite.Run([]byte("w"))
	if !oDiv.Diverged || !oFree.Diverged {
		t.Fatalf("expected both flavors to diverge (div=%v free=%v)", oDiv.Diverged, oFree.Diverged)
	}
	if oDiv.Signature() == oFree.Signature() {
		t.Fatal("flavors landed on one signature; the coarsening regression is vacuous")
	}
	fpDiv, fpFree := Of(oDiv), Of(oFree)
	if !fpDiv.Equal(fpFree) {
		t.Fatalf("flavors split the implementations differently (%v vs %v)", fpDiv, fpFree)
	}
	bs := NewBucketStore()
	_, fresh1 := bs.Add(oDiv)
	b, fresh2 := bs.Add(oFree)
	if !fresh1 || fresh2 {
		t.Fatalf("want exactly one bucket, got fresh1=%v fresh2=%v", fresh1, fresh2)
	}
	if b.Signatures != 2 {
		t.Fatalf("bucket merged %d signatures, want 2", b.Signatures)
	}
}

func TestBucketStoreAbsorbRecount(t *testing.T) {
	oA := mustOutcome(t, divSrc, nil)
	oB := mustOutcome(t, `
int main() {
    int x;
    if (input_size() > 100L) { x = 1; }
    printf("%d\n", x);
    return 0;
}
`, nil)

	shard1, shard2 := NewBucketStore(), NewBucketStore()
	shard1.Add(oA)
	shard1.Add(oA)
	shard2.Add(oA)
	shard2.Add(oB)

	shared := NewBucketStore()
	fresh := shared.Absorb(shard1.Since(0))
	if len(fresh) != 1 {
		t.Fatalf("first absorb: %d fresh buckets, want 1", len(fresh))
	}
	fresh = shared.Absorb(shard2.Since(0))
	if len(fresh) != 1 {
		t.Fatalf("second absorb: %d fresh buckets, want 1 (A is known)", len(fresh))
	}
	if shared.Len() != 2 {
		t.Fatalf("shared.Len()=%d, want 2", shared.Len())
	}

	// Recount with authoritative per-shard sums, DiffStore-style.
	totals := map[uint64]int{}
	for _, s := range []*BucketStore{shard1, shard2} {
		for key, c := range s.Counts() {
			totals[key] += c
		}
	}
	shared.Recount(totals)
	if shared.Total() != 4 {
		t.Fatalf("Total=%d after recount, want 4", shared.Total())
	}

	// Since cursor clamps out of range.
	if got := shared.Since(99); len(got) != 0 {
		t.Fatalf("Since(99) returned %d buckets", len(got))
	}
	if got := shared.Since(-3); len(got) != 2 {
		t.Fatalf("Since(-3) returned %d buckets, want 2", len(got))
	}
}

func TestBucketReportAndTable(t *testing.T) {
	bs := NewBucketStore()
	b, _ := bs.Add(mustOutcome(t, divSrc, nil))
	names := make([]string, len(b.Fingerprint.Partition))
	for i, cfg := range compiler.DefaultSet() {
		names[i] = cfg.Name()
	}
	rep := b.Report(names)
	for _, want := range []string{"bucket ", "representative input", "reproducers:", "gcc -O0"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
	table := bs.Table()
	if !strings.Contains(table, "bucket") || !strings.Contains(table, "stage") {
		t.Fatalf("table missing headers:\n%s", table)
	}
	if lines := strings.Count(strings.TrimSpace(table), "\n"); lines != 1 {
		t.Fatalf("table has %d rows, want 1:\n%s", lines, table)
	}
}
