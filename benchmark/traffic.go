package main

import (
	"fmt"
	"strings"
	"time"

	"statebench/internal/core"
	"statebench/internal/traffic"
)

// Traffic workload shape: a million tenants under one Poisson stream
// per provider, on an 8-shard kernel.
const (
	trafficTenants  = 1_000_000
	trafficRate     = 100_000 // arrivals per virtual second
	trafficDuration = 5 * time.Second
	trafficShards   = 8
	// trafficWarmup is the arrival window of the set-up run.
	trafficWarmup = time.Second
)

const trafficName = "traffic-open-loop"

// trafficProviders are the providers driven: one per-request serving
// model and one instance-pool model.
var trafficProviders = []string{"AWS", "Azure"}

// trafficWorkload runs traffic.Run open loop against AWS and Azure. One
// pass is one run per provider; each run is one operation.
var trafficWorkload = workload{
	name:         trafficName,
	minPasses:    3,
	gcBeforePass: true,
	setup: func(seed uint64, _ *recorder) (instance, error) {
		chk, err := checkerFor(trafficName, seed)
		if err != nil {
			return nil, err
		}
		return setupTraffic(seed, trafficTenants, trafficDuration, trafficWarmup, chk)
	},
	spanMetrics: func(r *recorder, vals map[string]float64) {
		for _, name := range trafficProviders {
			vals["traffic.run_s."+name] = r.perPass("traffic.run." + name)
		}
	},
}

type trafficOpenLoop struct {
	cfgs  []traffic.Config
	names []string
	// chk holds the digest every pass's result rows must match. Every
	// pass repeats the same runs, so all passes are at position 0.
	chk *checker
}

// setupTraffic builds each provider's configuration and runs it once
// over the short warmup arrival window, which allocates the per-tenant
// state.
func setupTraffic(seed uint64, tenants int, window, warmup time.Duration, chk *checker) (*trafficOpenLoop, error) {
	t := &trafficOpenLoop{names: trafficProviders, chk: chk}
	for _, name := range trafficProviders {
		var spec *core.ProviderSpec
		for _, s := range core.Providers() {
			if s.Name == name {
				spec = s
			}
		}
		if spec == nil || spec.Traffic == nil {
			return nil, fmt.Errorf("provider %s has no traffic profile", name)
		}
		cfg := traffic.Config{
			Tenants:    tenants,
			Duration:   window,
			Process:    traffic.Poisson{Rate: trafficRate},
			Profile:    spec.Traffic(),
			Book:       spec.DefaultBook(),
			CodeSizeMB: 64,
			Shards:     trafficShards,
			Seed:       seed,
		}
		t.cfgs = append(t.cfgs, cfg)
		warm := cfg
		warm.Duration = warmup
		if res := traffic.Run(warm); res.Completions != res.Arrivals {
			return nil, fmt.Errorf("warm-up %s: %d arrivals, %d completions", name, res.Arrivals, res.Completions)
		}
	}
	return t, nil
}

// row renders the simulated statistics of one run; their digest is
// what the benchmark checks. The kernel's event count and the virtual
// time of its last event are left out: they count scheduling work a
// faster kernel may legitimately drop, not simulated outcomes.
func row(name string, res *traffic.Result) string {
	return fmt.Sprintf("%s arrivals=%d completions=%d e2e.p50=%d e2e.p99=%d e2e.max=%d "+
		"cold=%d coldwait.p50=%d coldwait.p99=%d queue.p99=%d backlog.peak=%d backlog.mean=%.6f inflight.peak=%d "+
		"bill=%.9f billed=%d cost.p50=%d cost.p99=%d\n",
		name, res.Arrivals, res.Completions, res.E2E.Median(), res.E2E.P99(), res.E2E.Max(),
		res.ColdStarts, res.ColdWait.Median(), res.ColdWait.P99(), res.QueueWait.P99(), res.PeakBacklog, res.MeanBacklog,
		res.PeakInFlight, res.TotalBill.Total(), res.BilledTenants, res.TenantCost.Median(), res.TenantCost.P99())
}

// pass runs every provider once. A run fails if it dropped work; the
// pass's runs all fail if their rows' digest differs from the one the
// seed must reproduce.
func (t *trafficOpenLoop) pass(r *recorder) passResult {
	res := passResult{counts: map[string]float64{}}
	var rows strings.Builder
	for i, cfg := range t.cfgs {
		end := r.begin("traffic.run." + t.names[i])
		out := traffic.Run(cfg)
		end()
		res.ops++
		rows.WriteString(row(t.names[i], out))
		if out.Completions != out.Arrivals {
			res.failed++
			r.note("%s: %d arrivals, %d completions", t.names[i], out.Arrivals, out.Completions)
		} else {
			res.units += int(out.Arrivals)
		}
		res.counts["sim.events"] += float64(out.Events)
		res.counts["traffic.cold_starts"] += float64(out.ColdStarts)
		res.counts["traffic.peak_backlog"] = max(res.counts["traffic.peak_backlog"], float64(out.PeakBacklog))
		res.counts["traffic.peak_in_flight"] = max(res.counts["traffic.peak_in_flight"], float64(out.PeakInFlight))
	}
	if got, want, ok := t.chk.check(0, rows.String()); !ok {
		r.note("result rows digest %s, want %s:\n%s", got, want, rows.String())
		res.failed = res.ops
		res.units = 0
	}
	return res
}

func (t *trafficOpenLoop) close() {}
