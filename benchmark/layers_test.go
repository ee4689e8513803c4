package main

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// modulePackages lists every package of the statebench module below
// internal/ (directories holding non-test Go files), relative to it.
func modulePackages(t *testing.T) []string {
	t.Helper()
	root := filepath.Join("..", "internal")
	seen := map[string]bool{}
	var pkgs []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		if pkg := filepath.ToSlash(rel); !seen[pkg] {
			seen[pkg] = true
			pkgs = append(pkgs, pkg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 40 {
		t.Fatalf("found only %d packages under %s", len(pkgs), root)
	}
	return pkgs
}

// TestEveryPackageMapsToOneLayer fails when a package of the module maps
// to no layer or to two, and when a rule matches no package.
func TestEveryPackageMapsToOneLayer(t *testing.T) {
	used := map[string]bool{}
	for _, pkg := range modulePackages(t) {
		rules := rulesFor(pkg)
		if len(rules) != 1 {
			t.Errorf("package statebench/internal/%s matches %d layer rules %v, want exactly 1", pkg, len(rules), rules)
		}
		for _, r := range rules {
			used[r.pattern] = true
		}
	}
	for _, r := range layerRules {
		if !used[r.pattern] {
			t.Errorf("layer rule %q (%s) matches no package", r.pattern, r.layer)
		}
	}
	for file := range simProcFiles {
		if _, err := os.Stat(filepath.Join("..", "internal", "sim", file)); err != nil {
			t.Errorf("sim.proc file: %v", err)
		}
	}
}

func TestAttribute(t *testing.T) {
	for _, tc := range []struct {
		stack []frame
		want  string
	}{
		{[]frame{{"runtime.chanrecv1", "chan.go"}, {"statebench/internal/sim.(*Proc).park", "/src/internal/sim/proc.go"}, {"statebench/internal/azure/durable.(*Hub).pollLoop", "hub.go"}}, "sim.proc"},
		{[]frame{{"statebench/internal/sim.(*Kernel).RunUntil", "/src/internal/sim/kernel.go"}}, "sim.kernel"},
		{[]frame{{"crypto/sha256.block", "sha256.go"}, {"statebench/internal/payload.DigestBytes", "payload.go"}}, "payload"},
		{[]frame{{"encoding/json.Marshal", "encode.go"}, {"statebench/internal/workloads/mapreduce.marshalMR", "mapreduce.go"}}, "workloads"},
		{[]frame{{"statebench/internal/workloads/mlpipe.Train", "mlpipe.go"}}, "mlkit"},
		{[]frame{{"statebench/internal/azure/netherite/nethflow.lower.func1", "nethflow.go"}}, "flow"},
		{[]frame{{"runtime.scanobject", "mgcmark.go"}, {"runtime.gcBgMarkWorker", "mgc.go"}}, runtimeLayer},
		{[]frame{{"sort.Float64s", "sort.go"}, {"main.median", "main.go"}}, ""},
	} {
		if got := attribute(tc.stack); got != tc.want {
			t.Errorf("attribute(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

// spin burns CPU in a frame the profile test can find.
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

// TestParseProfile decodes a real CPU profile and finds the spin frame.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p.valueIndex("cpu", "nanoseconds") < 0 {
		t.Fatalf("no cpu/nanoseconds sample type in %v", p.sampleTypes)
	}
	found := false
	for _, s := range p.samples {
		for _, f := range p.stack(s) {
			found = found || f.fn == "statebench/benchmark.spin"
		}
	}
	if !found {
		t.Fatalf("no sample of %d has the spin frame", len(p.samples))
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json's metric lists
// equal to what the runs report.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []named) {
		if len(got) != len(want) {
			t.Errorf("%s lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := range min(len(got), len(want)) {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), want %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics())
}
