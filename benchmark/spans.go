package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// hostSpan is one host-time interval the benchmark measured around its own
// call into a layer. Spans of one pass share the pass number;
// set-up spans have negative ones (see recorder.setup).
type hostSpan struct {
	Name    string  `json:"name"`
	Pass    int     `json:"pass"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
}

// recorder keeps the spans of a traced phase in memory until write.
// A disabled recorder only times: begin's end function still returns
// the duration, but nothing is stored.
type recorder struct {
	on   bool
	t0   time.Time
	pass int
	// setups counts set-ups begun.
	setups int
	spans  []hostSpan
	// notes collects the first few failure messages for the result
	// record.
	notes []string
}

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: time.Now(), pass: -1} }

// begin opens a span and returns the function that closes it and
// reports its duration.
func (r *recorder) begin(name string) func() time.Duration {
	start := time.Now()
	return func() time.Duration {
		end := time.Now()
		if r.on {
			r.spans = append(r.spans, hostSpan{
				Name:    name,
				Pass:    r.pass,
				StartMS: float64(start.Sub(r.t0)) / 1e6,
				EndMS:   float64(end.Sub(r.t0)) / 1e6,
			})
		}
		return end.Sub(start)
	}
}

// setup marks the spans that follow as set-up: their pass number is
// -1 for the first set-up, -2 for the second, and so on.
func (r *recorder) setup() {
	r.setups++
	r.pass = -r.setups
}

// note keeps a failure message (the first 20 only).
func (r *recorder) note(format string, args ...any) {
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// durations returns the durations in seconds of the spans named name,
// grouped by pass number.
func (r *recorder) durations(name string) map[int][]float64 {
	out := map[int][]float64{}
	for _, s := range r.spans {
		if s.Name == name {
			out[s.Pass] = append(out[s.Pass], (s.EndMS-s.StartMS)/1e3)
		}
	}
	return out
}

// perPass returns, for the spans named name, the median over measured
// passes of their per-pass total in seconds.
func (r *recorder) perPass(name string) float64 {
	var totals []float64
	for pass, ds := range r.durations(name) {
		if pass >= 0 {
			totals = append(totals, sum(ds))
		}
	}
	return median(totals)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// all returns every measured-pass duration of the spans named name.
func (r *recorder) all(name string) []float64 {
	var out []float64
	for pass, ds := range r.durations(name) {
		if pass >= 0 {
			out = append(out, ds...)
		}
	}
	return out
}

// write stores the spans as <dir>/<workload>-seed<n>.json and returns
// the file name.
func (r *recorder) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	b, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": r.spans})
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	name := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := os.WriteFile(name, b, 0o644); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return name, nil
}
