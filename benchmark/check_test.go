package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smallTraffic sets the traffic workload up at test scale.
func smallTraffic(t *testing.T, chk *checker) *trafficOpenLoop {
	t.Helper()
	tr, err := setupTraffic(7, 1000, 200*time.Millisecond, 50*time.Millisecond, chk)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// recorded returns a checker that holds the given digests as recorded.
func recorded(digests ...string) *checker {
	return &checker{want: digests, recorded: true}
}

// wrongDigest is a digest no rows hash to.
var wrongDigest = strings.Repeat("0", 64)

// TestWrongDigestCountsAsFailure shows that a traffic result digest
// other than the recorded one fails every run of the pass, and the
// recorded one fails none.
func TestWrongDigestCountsAsFailure(t *testing.T) {
	own := &checker{}
	if got := smallTraffic(t, own).pass(newRecorder(false)); got.failed != 0 || got.ops != 2 {
		t.Fatalf("pass with no recorded digest: %+v", got)
	}
	digest := own.want[0]

	r := newRecorder(false)
	bad := smallTraffic(t, recorded(wrongDigest)).pass(r)
	if bad.failed != bad.ops || bad.ops != 2 || bad.units != 0 {
		t.Fatalf("pass against a wrong digest: %+v, want every run failed", bad)
	}
	if len(r.notes) == 0 || !strings.Contains(r.notes[0], digest) {
		t.Fatalf("failure notes %q do not name the digest %s", r.notes, digest)
	}
	if good := smallTraffic(t, recorded(digest)).pass(newRecorder(false)); good.failed != 0 {
		t.Fatalf("pass against its own digest: %+v", good)
	}
}

// TestWrongMapReduceDigestCountsAsFailure shows that a MapReduce pass
// whose rows do not match the digest for its position fails every
// invocation of the pass, and that a fresh set-up reproduces the
// digests of the first.
func TestWrongMapReduceDigestCountsAsFailure(t *testing.T) {
	setup := func(chk *checker) *mapreduceStyles {
		t.Helper()
		m, err := setupMapReduce(7, newRecorder(false), chk)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.close)
		return m
	}
	own := &checker{}
	first := setup(own)
	for i := 0; i < 2; i++ {
		if got := first.pass(newRecorder(false)); got.failed != 0 || got.ops != mrStyles {
			t.Fatalf("pass %d with no recorded digest: %+v", i, got)
		}
	}
	if len(own.want) != 2 || own.want[0] == own.want[1] {
		t.Fatalf("two passes recorded digests %q, want two distinct", own.want)
	}

	again := setup(recorded(own.want...))
	for i := 0; i < 2; i++ {
		if got := again.pass(newRecorder(false)); got.failed != 0 {
			t.Fatalf("pass %d of a second set-up against the first's digests: %+v", i, got)
		}
	}

	r := newRecorder(false)
	bad := setup(recorded(wrongDigest)).pass(r)
	if bad.failed != bad.ops || bad.ops != mrStyles || bad.units != 0 {
		t.Fatalf("pass against a wrong digest: %+v, want every invocation failed", bad)
	}
	if len(r.notes) == 0 || !strings.Contains(r.notes[0], own.want[0]) {
		t.Fatalf("failure notes %q do not name the digest %s", r.notes, own.want[0])
	}
}

// TestExpectedDecodes keeps expected.json readable and covering both
// checked workloads at the golden seed: one digest for traffic, whose
// passes all repeat one run, and one per cycle position for MapReduce.
func TestExpectedDecodes(t *testing.T) {
	exp, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]int{trafficName: 1, mapreduceName: mrCycle} {
		c := newChecker(exp, name, goldenSeed)
		if !c.recorded || len(c.want) != n {
			t.Fatalf("expected.json has %d digests for %s at seed %d, want %d", len(c.want), name, goldenSeed, n)
		}
		for _, d := range c.want {
			if len(d) != 64 {
				t.Fatalf("%s: %q is no SHA-256", name, d)
			}
		}
	}
}

// TestSplitReports checks the golden splits into whole reports that
// join back to the file.
func TestSplitReports(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	reports := splitReports(string(raw))
	if strings.Join(reports, "") != string(raw) {
		t.Fatal("reports do not join back to the golden")
	}
	if n := strings.Count(string(raw), "\n== ") + 1; len(reports) != n {
		t.Fatalf("%d reports, golden has %d headers", len(reports), n)
	}
	for _, r := range reports {
		if !strings.HasPrefix(r, "== ") || !strings.HasSuffix(r, "\n\n") {
			t.Fatalf("malformed report %q", r)
		}
	}
}
