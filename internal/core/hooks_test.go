package core_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"statebench/internal/azure/netherite"
	"statebench/internal/chaos"
	"statebench/internal/core"
	_ "statebench/internal/flow/lowerers" // every provider's flow lowerer
	"statebench/internal/gcp"
	"statebench/internal/obs/metrics"
	"statebench/internal/obs/span"
	"statebench/internal/obs/tseries"
	"statebench/internal/sim"
	"statebench/internal/workloads/mapreduce"
)

// observation is everything the three hooks recorded over one campaign.
type observation struct {
	spans    int
	prom     string
	timeline string
}

// observeCampaign deploys wf as impl, runs a short campaign, and
// returns what the tracer, the metrics sink, the chaos injector and the
// timeline recorded. The hooks are enabled before Deploy or, with late,
// after it.
func observeCampaign(t *testing.T, wf core.Workflow, impl core.Impl, late bool) observation {
	t.Helper()
	env := core.NewEnv(7)
	reg := metrics.NewRegistry()
	tl := tseries.New(tseries.DefaultInterval)
	var tr *span.Tracer
	enable := func() {
		env.EnableTimeline(tl)
		tr = env.EnableTracing()
		tr.Metrics = reg
		tr.Windows = tl
		inj := env.EnableChaos(chaos.DefaultPlan(0.05))
		inj.Tracer = tr
		inj.Metrics = reg
		inj.Timeline = tl
	}
	if !late {
		enable()
	}
	dep, err := wf.Deploy(env, impl)
	if err != nil {
		t.Fatalf("deploy %s: %v", impl, err)
	}
	if late {
		enable()
	}
	env.K.Spawn("measure", func(p *sim.Proc) {
		defer env.Stop()
		for i := 0; i < 3; i++ {
			run := tr.StartTrace(p.Now(), span.KindRun, string(impl))
			p.TraceCtx = run.Context()
			if _, err := dep.Runner.Invoke(p, nil); err != nil {
				t.Errorf("%s iteration %d: %v", impl, i, err)
				return
			}
			run.End(p.Now())
			p.TraceCtx = sim.TraceContext{}
			p.Sleep(30 * time.Second)
		}
	})
	env.K.Run()
	var prom, csv bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if err := tl.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	return observation{spans: tr.Len(), prom: prom.String(), timeline: csv.String()}
}

// TestEnableAfterDeployMatchesBefore pins the property the shared hooks
// bundle guarantees: enabling tracing, chaos and the timeline after
// Deploy observes exactly what enabling them before does — including
// Azure manual queues created during Deploy, the Durable task hub, and
// backends Deploy constructs lazily (GCP, Netherite).
func TestEnableAfterDeployMatchesBefore(t *testing.T) {
	wf := mapreduce.New()
	for _, impl := range []core.Impl{core.AzQueue, core.AzDorch, gcp.Wflow, netherite.Dorch} {
		impl := impl
		t.Run(string(impl), func(t *testing.T) {
			before := observeCampaign(t, wf, impl, false)
			after := observeCampaign(t, wf, impl, true)
			if !strings.Contains(before.prom, `kind="exec"`) {
				t.Fatalf("no service spans reached the metrics sink:\n%s", before.prom)
			}
			if after.spans != before.spans {
				t.Errorf("span count: enabled after Deploy %d, before %d", after.spans, before.spans)
			}
			if after.prom != before.prom {
				t.Errorf("metrics exposition differs:\nafter Deploy:\n%s\nbefore:\n%s", after.prom, before.prom)
			}
			if after.timeline != before.timeline {
				t.Errorf("timeline CSV differs:\nafter Deploy:\n%s\nbefore:\n%s", after.timeline, before.timeline)
			}
		})
	}
}
