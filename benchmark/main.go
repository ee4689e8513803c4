// Command statebench-bench is the repository's benchmark: it drives
// three workloads through statebench's public entry points, checks
// every simulated output, and prints host-time metrics.
//
// Usage (from the repository root, normally through benchmark/run.sh):
//
//	statebench-bench --workload paper-quick --seed 42 --seconds 20 --trace 0
//
// statebench is a deterministic simulator, so simulated statistics
// (latencies, bills, transaction and event counts) are correctness, not
// performance: they are checked, and a mismatch counts as a failed
// operation. Host time, CPU time, allocation and memory are the only
// things a faster commit may move.
//
// --trace 0 reports the end-to-end metrics. --trace 1 first repeats the
// untraced measurement, then sets the workload up afresh and runs the
// same number of passes under a CPU and allocation profile, and reports
// the per-layer split (see layers.go) plus the benchmark's own spans
// around its calls into each layer. The last line of standard output is
// one JSON object with the keys correct, attempted, failed and metrics;
// the line before it stamps the run with commit, Go version, GOMAXPROCS,
// CPU count and CPU model.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupReps is how many times each run sets its workload up. setup_s
// is the start-up time before the first set-up (process start, runtime
// and package init) plus the median set-up; one-time lazy init that
// only the first set-up pays does not move the median.
const setupReps = 9

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passResult tallies one pass of a workload.
type passResult struct {
	ops    int // operations attempted (experiments, invocations, provider runs)
	failed int // operations that errored, went missing or mismatched
	units  int // completed runs or requests, the numerator of runs_per_s
	// counts are exact work counts read from public counters.
	counts map[string]float64
}

// instance is one set-up copy of a workload.
type instance interface {
	// pass runs one unit of measured work, recording spans into r.
	pass(r *recorder) passResult
	// close releases the instance's simulated environments.
	close()
}

// workload is one benchmark workload.
type workload struct {
	name string
	// minPasses is the least number of passes one measured phase runs.
	minPasses int
	// passesPerSetup, when > 0, bounds how many passes one instance
	// serves. The simulated state a deployment accumulates (task-hub
	// history, spans, telemetry windows) then stays the same size
	// however fast the host runs, and so do peak_rss_mb and the cost of
	// a pass.
	passesPerSetup int
	// gcBeforePass collects garbage at the start of every pass, inside
	// its timed region. A pass that allocates more than the live heap
	// then starts from the same heap state each time, so where its peak
	// falls in the GC cycle, and with it peak_rss_mb, does not vary
	// between runs; collecting the previous pass's garbage still counts
	// toward wall_s and cpu_s.
	gcBeforePass bool
	setup        func(seed uint64, r *recorder) (instance, error)
	// spanMetrics adds the values of the workload's span metrics,
	// derived from a traced phase's spans, to vals.
	spanMetrics func(r *recorder, vals map[string]float64)
}

var workloads = []workload{paperQuickWorkload, mapreduceWorkload, trafficWorkload}

func main() {
	name := flag.String("workload", "", "workload to run: paper-quick, mapreduce-styles or traffic-open-loop")
	seed := flag.Uint64("seed", 42, "seed every workload input derives from")
	seconds := flag.Float64("seconds", 10, "host seconds one measured phase lasts")
	trace := flag.Int("trace", 0, "1 adds a profiled run and reports the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for result stamps and spans")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "statebench-bench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "statebench-bench:", err)
		os.Exit(1)
	}
	res, extra, err := run(wl, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out)
	if err != nil {
		fail(err)
	}
	st := stampNow(wl.name, *seed, *trace)
	if err := writeRecord(*out, st, res, extra); err != nil {
		fail(err)
	}
	// The stamp line, then the result as the last line.
	for _, v := range []any{map[string]any{"stamp": st}, res} {
		line, err := json.Marshal(v)
		if err != nil {
			fail(err)
		}
		fmt.Println(string(line))
	}
}

// sample is the host cost of one pass.
type sample struct {
	wall, cpu time.Duration
	alloc     uint64 // bytes
	units     int    // runs or requests the pass completed
}

// phase is one measured phase: its passes and their tallies.
type phase struct {
	samples     []sample
	ops, failed int
	first       passResult // the first pass, whose counts are reported
}

func (p *phase) walls() []float64 {
	out := make([]float64, len(p.samples))
	for i, s := range p.samples {
		out[i] = s.wall.Seconds()
	}
	return out
}

// measure runs passes until the next one would end past budget, and
// at least wl.minPasses (or exactly passes, when > 0). It starts with
// inst, or sets the workload up when inst is nil, and sets it up afresh
// every wl.passesPerSetup passes; set-up counts against the budget but
// toward no pass, and prof (nil when untraced) profiles passes only.
func measure(wl *workload, inst instance, seed uint64, r *recorder, prof *profiler, budget time.Duration, passes int) (phase, error) {
	var ph phase
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()
	start := time.Now()
	for i := 0; ; i++ {
		if passes > 0 {
			if i == passes {
				break
			}
		} else if i >= wl.minPasses {
			next := time.Duration(median(ph.walls()) * float64(time.Second))
			if time.Since(start)+next > budget {
				break
			}
		}
		if inst == nil || (wl.passesPerSetup > 0 && i > 0 && i%wl.passesPerSetup == 0) {
			if err := prof.stop(); err != nil {
				return ph, err
			}
			if inst != nil {
				inst.close()
			}
			r.setup()
			var err error
			if inst, err = wl.setup(seed, r); err != nil {
				return ph, fmt.Errorf("%s: setup: %w", wl.name, err)
			}
			if err := prof.start(); err != nil {
				return ph, err
			}
		}
		r.pass = i
		cpu0, alloc0 := cpuTime(), allocBytes()
		end := r.begin("pass")
		if wl.gcBeforePass {
			runtime.GC()
		}
		pr := inst.pass(r)
		wall := end()
		ph.samples = append(ph.samples, sample{wall: wall, cpu: cpuTime() - cpu0, alloc: allocBytes() - alloc0, units: pr.units})
		if i == 0 {
			ph.first = pr
		}
		ph.ops += pr.ops
		ph.failed += pr.failed
	}
	return ph, prof.stop()
}

// record is what a run writes under the output directory next to the
// printed result: the stamp, the per-pass samples and any notes.
type record struct {
	Stamp  stamp          `json:"stamp"`
	Result result         `json:"result"`
	Extra  map[string]any `json:"extra"`
}

// tracedMemProfileRate is the allocation sampling interval of the
// traced phase, finer than the runtime's default so small layers
// still get samples.
const tracedMemProfileRate = 64 << 10

// run sets the workload up setupReps times, measures it, and (traced)
// repeats the phase under the profilers.
func run(wl *workload, seed uint64, budget time.Duration, traced bool, out string) (result, map[string]any, error) {
	off := newRecorder(false)
	startup := time.Since(processStart()).Seconds()
	var inst instance
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		inst, err = wl.setup(seed, off)
		if err != nil {
			return result{}, nil, fmt.Errorf("%s: setup: %w", wl.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	plain, err := measure(wl, inst, seed, off, nil, budget, 0)
	if err != nil {
		return result{}, nil, err
	}

	ops, failed := plain.ops, plain.failed
	extra := map[string]any{
		"passes":      len(plain.samples),
		"pass_wall_s": plain.walls(),
		"startup_s":   startup,
		"setup_s":     setups,
		"notes":       off.notes,
	}
	vals := map[string]float64{}
	list := endToEndMetrics
	if !traced {
		var rates, cpus, allocs []float64
		for _, s := range plain.samples {
			rates = append(rates, float64(s.units)/s.wall.Seconds())
			cpus = append(cpus, s.cpu.Seconds())
			allocs = append(allocs, float64(s.alloc)/1e6)
		}
		vals["wall_s"] = median(plain.walls())
		vals["runs_per_s"] = median(rates)
		vals["cpu_s"] = median(cpus)
		vals["alloc_mb"] = median(allocs)
		vals["peak_rss_mb"] = peakRSSMB()
		vals["setup_s"] = startup + median(setups)
	} else {
		// Set once, after the untraced phase, so that phase runs at the
		// default rate and trace.overhead_s includes the sampling. The
		// profiler diffs records taken after this point only, so every
		// sample it scales was taken at this rate.
		runtime.MemProfileRate = tracedMemProfileRate
		rec := newRecorder(true)
		prof := &profiler{split: newLayerSplit()}
		traced, err := measure(wl, nil, seed, rec, prof, budget, len(plain.samples))
		if err != nil {
			return result{}, nil, err
		}
		ops += traced.ops
		failed += traced.failed
		passes := float64(len(traced.samples))
		for _, l := range layerNames() {
			vals[l+".self_s"] = prof.split.cpu[l].Seconds() / passes
			vals[l+".alloc_mb"] = prof.split.alloc[l] / 1e6 / passes
		}
		vals["profile.unattributed_share"] = prof.split.unattributedShare()
		vals["trace.overhead_s"] = median(traced.walls()) - median(plain.walls())
		wl.spanMetrics(rec, vals)
		for k, v := range traced.first.counts {
			vals[k] = v
		}
		spansFile, err := rec.write(filepath.Join(out, "spans"), wl.name, seed)
		if err != nil {
			return result{}, nil, err
		}
		extra["spans_file"] = spansFile
		extra["traced_pass_wall_s"] = traced.walls()
		extra["notes"] = append(off.notes, rec.notes...)
		list = perLayerMetrics()
	}
	// Report exactly the listed metrics; those a workload has no data
	// for (another workload's spans and counts) are 0.
	m := map[string]metric{}
	for _, nm := range list {
		m[nm.name] = metric{vals[nm.name], nm.unit}
	}
	return result{
		Correct:   failed == 0,
		Attempted: ops,
		Failed:    failed,
		Metrics:   m,
	}, extra, nil
}

// profiler runs the CPU profiler and diffs allocation-profile snapshots
// over the stretches between start and stop, and splits both across
// layers. Its methods do nothing on a nil profiler.
type profiler struct {
	split  layerSplit
	on     bool
	cpu    bytes.Buffer
	before map[[32]uintptr]runtime.MemProfileRecord
}

func (p *profiler) start() error {
	if p == nil || p.on {
		return nil
	}
	runtime.GC()
	runtime.GC()
	p.before = memRecords()
	p.cpu.Reset()
	if err := pprof.StartCPUProfile(&p.cpu); err != nil {
		return fmt.Errorf("start cpu profile: %w", err)
	}
	p.on = true
	return nil
}

func (p *profiler) stop() error {
	if p == nil || !p.on {
		return nil
	}
	pprof.StopCPUProfile()
	p.on = false
	runtime.GC()
	runtime.GC()
	p.split.addAllocs(p.before, memRecords())
	if err := p.split.addCPU(p.cpu.Bytes()); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	return nil
}

// mainInit is when the main package was initialized: the start of the
// process, less runtime start-up and the other packages' init.
var mainInit = time.Now()

// processStart returns when the process started: the wall-clock time
// in nanoseconds since the epoch that run.sh takes just before it
// starts the benchmark binary, or mainInit without it.
func processStart() time.Time {
	ns, err := strconv.ParseInt(os.Getenv("STATEBENCH_BENCH_START_NS"), 10, 64)
	if err != nil {
		return mainInit
	}
	return time.Unix(0, ns)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocBytes is the cumulative number of heap bytes allocated.
func allocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// stamp identifies the code and machine behind a result.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      int    `json:"trace"`
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Time       string `json:"time"`
}

func stampNow(workload string, seed uint64, trace int) stamp {
	commit := os.Getenv("STATEBENCH_BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return stamp{
		Workload:   workload,
		Seed:       seed,
		Trace:      trace,
		Commit:     commit,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel reads the first model name from /proc/cpuinfo.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// writeRecord stores the run's stamp, result and samples as
// <out>/results/<workload>-seed<n>-trace<t>.json.
func writeRecord(out string, st stamp, res result, extra map[string]any) error {
	dir := filepath.Join(out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(record{Stamp: st, Result: res, Extra: extra}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", st.Workload, st.Seed, st.Trace)
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}
