package main

import (
	"math"
	"path"
	"runtime"
	"strings"
	"time"
)

// modulePrefix is the import-path prefix of the packages the layer split
// attributes to.
const modulePrefix = "statebench/internal/"

// layerRule maps packages below statebench/internal/ to a layer. A
// pattern is a package path relative to internal/, or "p/..." for p
// and every package below it. Every package of the module must match
// exactly one rule (layers_test.go checks this), so a new package
// cannot land in no layer unnoticed.
type layerRule struct{ pattern, layer string }

var layerRules = []layerRule{
	{"sim", "sim.kernel"}, // simProcFiles split off sim.proc
	{"mlkit/...", "mlkit"},
	{"workloads/mlpipe", "mlkit"},
	{"video", "video"},
	{"workloads", "workloads"},
	{"workloads/mapreduce", "workloads"},
	{"workloads/mlinfer", "workloads"},
	{"workloads/mltrain", "workloads"},
	{"workloads/videoproc", "workloads"},
	{"payload", "payload"},
	{"flow/...", "flow"},
	{"aws/awsflow", "flow"},
	{"azure/azureflow", "flow"},
	{"azure/netherite/nethflow", "flow"},
	{"gcp/gcpflow", "flow"},
	{"aws", "aws.lambda"},
	{"aws/lambda", "aws.lambda"},
	{"aws/sfn", "aws.sfn"},
	{"azure", "azure.functions"},
	{"azure/functions", "azure.functions"},
	{"azure/durable", "azure.durable"},
	{"azure/netherite", "azure.netherite"},
	{"gcp", "gcp"},
	{"platform", "platform"},
	{"cloud/...", "cloud"},
	{"traffic", "traffic"},
	{"pricing", "pricing"},
	{"obs/...", "obs"},
	{"trace", "obs"},
	{"core", "core"},
	{"experiments", "experiments"},
	{"optimizer", "experiments"},
	{"parallel", "experiments"},
	{"chaos", "chaos"},
}

// simProcFiles are the files of internal/sim whose code is process
// handoff (spawn, park/unpark, futures, resources): their frames, and
// the runtime channel and scheduler work under them, count as
// sim.proc; the rest of the package is sim.kernel.
var simProcFiles = map[string]bool{"proc.go": true, "future.go": true, "resource.go": true}

// runtimeLayer takes samples made only of runtime frames: the garbage
// collector, the scheduler and other work no statebench frame called.
const runtimeLayer = "runtime.gc"

// simProcLayer is the layer simProcFiles split off internal/sim.
const simProcLayer = "sim.proc"

// layerNames lists the reported layers in rule order, with sim.proc
// after sim.kernel and runtime.gc last.
func layerNames() []string {
	var out []string
	seen := map[string]bool{}
	for _, r := range layerRules {
		if !seen[r.layer] {
			seen[r.layer] = true
			out = append(out, r.layer)
			if r.pattern == "sim" {
				out = append(out, simProcLayer)
			}
		}
	}
	return append(out, runtimeLayer)
}

// matches reports whether the package pkg (relative to internal/)
// falls under pattern.
func (r layerRule) matches(pkg string) bool {
	if base, ok := strings.CutSuffix(r.pattern, "/..."); ok {
		return pkg == base || strings.HasPrefix(pkg, base+"/")
	}
	return pkg == r.pattern
}

// rulesFor returns every rule that matches pkg.
func rulesFor(pkg string) []layerRule {
	var out []layerRule
	for _, r := range layerRules {
		if r.matches(pkg) {
			out = append(out, r)
		}
	}
	return out
}

// frameLayer returns the layer of a frame of function fn defined in
// file, and false for a frame outside statebench/internal (or in a
// package no rule covers).
func frameLayer(fn, file string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return "", false
	}
	// No package directory of the module has a dot in its name, so the
	// package path ends at the first dot: type, method and closure
	// names follow it.
	dot := strings.IndexByte(rest, '.')
	if dot < 0 {
		return "", false
	}
	pkg := rest[:dot]
	if pkg == "sim" && simProcFiles[path.Base(file)] {
		return simProcLayer, true
	}
	rules := rulesFor(pkg)
	if len(rules) != 1 {
		return "", false
	}
	return rules[0].layer, true
}

// isRuntime reports whether fn is a Go runtime function.
func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/")
}

// frame is one symbolized stack frame.
type frame struct{ fn, file string }

// attribute returns the layer a stack (innermost frame first) is
// charged to: its innermost statebench/internal frame, so library and
// runtime frames count toward the statebench code that called them; a
// stack of runtime frames alone is runtime.gc. Any other stack (only
// standard-library or benchmark frames) is unattributed: "".
func attribute(stack []frame) string {
	onlyRuntime := true
	for _, f := range stack {
		if l, ok := frameLayer(f.fn, f.file); ok {
			return l
		}
		if !isRuntime(f.fn) {
			onlyRuntime = false
		}
	}
	if onlyRuntime {
		return runtimeLayer
	}
	return ""
}

// layerSplit accumulates CPU time and allocated bytes per layer.
type layerSplit struct {
	// cpu is self time: samples charged by attribute.
	cpu   map[string]time.Duration
	alloc map[string]float64
	// unattributed is the CPU time of samples attribute left
	// unassigned; total is all sampled CPU time.
	unattributed, total time.Duration
}

func newLayerSplit() layerSplit {
	return layerSplit{cpu: map[string]time.Duration{}, alloc: map[string]float64{}}
}

// unattributedShare is the share of sampled CPU time left unattributed.
func (s layerSplit) unattributedShare() float64 {
	if s.total == 0 {
		return 0
	}
	return float64(s.unattributed) / float64(s.total)
}

// addCPU attributes the samples of a pprof CPU profile.
func (s *layerSplit) addCPU(raw []byte) error {
	p, err := parseProfile(raw)
	if err != nil {
		return err
	}
	vi := p.valueIndex("cpu", "nanoseconds")
	if vi < 0 {
		vi = len(p.sampleTypes) - 1
	}
	for _, smp := range p.samples {
		if vi >= len(smp.values) {
			continue
		}
		d := time.Duration(smp.values[vi])
		s.total += d
		l := attribute(p.stack(smp))
		if l == "" {
			s.unattributed += d
			continue
		}
		s.cpu[l] += d
	}
	return nil
}

// memRecords snapshots the allocation profile, keyed by stack.
func memRecords() map[[32]uintptr]runtime.MemProfileRecord {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		n, ok = runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
	}
	out := make(map[[32]uintptr]runtime.MemProfileRecord, len(recs))
	for _, r := range recs {
		out[r.Stack0] = r
	}
	return out
}

// addAllocs attributes the bytes allocated between two allocation
// profile snapshots, scaled up from the sampled bytes the way pprof
// scales a heap profile.
func (s *layerSplit) addAllocs(before, after map[[32]uintptr]runtime.MemProfileRecord) {
	rate := float64(runtime.MemProfileRate)
	for key, a := range after {
		b := before[key]
		count := a.AllocObjects - b.AllocObjects
		size := a.AllocBytes - b.AllocBytes
		if count <= 0 || size <= 0 {
			continue
		}
		bytes := float64(size)
		if rate > 1 {
			avg := float64(size) / float64(count)
			bytes /= 1 - math.Exp(-avg/rate)
		}
		var stack []frame
		frames := runtime.CallersFrames(a.Stack())
		for {
			f, more := frames.Next()
			stack = append(stack, frame{f.Function, f.File})
			if !more {
				break
			}
		}
		if l := attribute(stack); l != "" {
			s.alloc[l] += bytes
		}
	}
}
