package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"statebench/internal/experiments"
	"statebench/internal/payload"
)

// goldenSeed is the seed testdata/golden/quick_p1.txt was rendered at.
const goldenSeed = 42

// goldenPath is the quick-scale golden, relative to the repository root.
var goldenPath = filepath.Join("testdata", "golden", "quick_p1.txt")

// paperQuickWorkload runs the 13 paper experiments at QuickOptions,
// one after another (Workers=1), on a fresh payload engine per pass with
// product telemetry off: the run users make to reproduce the paper.
// One pass is the whole suite; every experiment is one operation.
var paperQuickWorkload = workload{
	name:      "paper-quick",
	minPasses: 1,
	setup:     setupPaperQuick,
	spanMetrics: func(r *recorder, vals map[string]float64) {
		for _, run := range experiments.Registry() {
			vals["experiment_s."+run.ID] = r.perPass("experiment_s." + run.ID)
		}
	},
}

type paperQuick struct {
	opts    experiments.Options
	runners []experiments.Runner
	// golden holds the golden's reports in order, each as rendered by
	// the CLI (report text plus a blank line); nil when the seed has no
	// golden.
	golden []string
}

// warmupRunners are the experiments set-up runs on a throwaway payload
// engine before the first pass, so lazy initialization is done: table2
// deploys every paper style of both workloads, fig12 runs the video
// campaigns and table3 a Durable fan-out. None trains an ML model,
// which would make set-up cost as much as a pass.
var warmupRunners = []string{"table2", "fig12", "table3"}

// setupPaperQuick reads the golden and runs the warm-up experiments.
func setupPaperQuick(seed uint64, _ *recorder) (instance, error) {
	o := experiments.QuickOptions()
	o.Seed = seed
	o.Workers = 1
	q := &paperQuick{opts: o, runners: experiments.Registry()}
	if seed == goldenSeed {
		raw, err := os.ReadFile(goldenPath)
		if err != nil {
			return nil, fmt.Errorf("read golden: %w", err)
		}
		q.golden = splitReports(string(raw))
	}
	warm := o
	warm.PayloadCache = payload.NewEngine()
	var runners []experiments.Runner
	for _, id := range warmupRunners {
		run, err := experiments.Find(id)
		if err != nil {
			return nil, err
		}
		runners = append(runners, run)
	}
	if _, err := experiments.RunAll(runners, warm); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return q, nil
}

// splitReports cuts rendered suite output into its reports: each starts
// at a "== " header line and runs to the next one.
func splitReports(text string) []string {
	var out []string
	start := 0
	for i := 1; i < len(text); i++ {
		if text[i-1] == '\n' && strings.HasPrefix(text[i:], "== ") {
			out = append(out, text[start:i])
			start = i
		}
	}
	if start < len(text) {
		out = append(out, text[start:])
	}
	return out
}

// pass runs every paper experiment through experiments.RunAll, one
// runner per call so each is timed, sharing one fresh payload engine as
// a whole-suite RunAll would. At the golden seed each report must match
// its golden report byte for byte.
func (q *paperQuick) pass(r *recorder) passResult {
	o := q.opts
	o.PayloadCache = payload.NewEngine()
	var res passResult
	next := 0 // index of the next golden report
	for _, run := range q.runners {
		end := r.begin("experiment_s." + run.ID)
		reports, err := experiments.RunAll([]experiments.Runner{run}, o)
		end()
		res.ops++
		if err != nil {
			res.failed++
			r.note("%s: %v", run.ID, err)
			continue
		}
		ok := len(reports) > 0
		for _, rep := range reports {
			if q.golden != nil {
				if next >= len(q.golden) || q.golden[next] != rep.String()+"\n" {
					ok = false
				}
				next++
			}
		}
		if !ok {
			res.failed++
			r.note("%s: output differs from %s", run.ID, goldenPath)
			continue
		}
		res.units++
	}
	if q.golden != nil && next != len(q.golden) && res.failed == 0 {
		res.failed++
		r.note("suite rendered %d reports, golden has %d", next, len(q.golden))
	}
	st := o.PayloadCache.Stats()
	res.counts = payloadCounts(st.Hits, st.Misses, st.Bytes)
	return res
}

func (q *paperQuick) close() {}
