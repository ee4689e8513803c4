package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"time"

	"statebench/internal/core"
	_ "statebench/internal/flow/lowerers" // every provider's flow lowerer
	"statebench/internal/obs/metrics"
	"statebench/internal/obs/span"
	"statebench/internal/obs/tseries"
	"statebench/internal/payload"
	"statebench/internal/pricing"
	"statebench/internal/sim"
	"statebench/internal/workloads/mapreduce"
)

const (
	mapreduceName = "mapreduce-styles"
	// mrStyles is how many registered styles the MapReduce IR lowers to.
	mrStyles = 8
	// mrGap is the virtual think time between a client's invocations,
	// during which only background listeners (hub polling) run.
	mrGap = 30 * time.Second
	// mrStep is the virtual time the kernel advances per step while the
	// benchmark waits for an invocation to complete.
	mrStep = time.Second
	// mrTimeout is the virtual time after which an invocation that has
	// not completed counts as missing.
	mrTimeout = time.Hour
	// mrCycle is how many passes one set-up serves; expected.json
	// records one digest per position.
	mrCycle = 10
)

// mapreduceWorkload deploys the IR MapReduce workload (4 MB corpus, 8
// mappers, 4 reducers) on every registered style, each in its own Env
// on one shared payload engine, with the span tracer, a metrics
// registry and windowed telemetry on. Each style has one closed-loop
// client that invokes with the same input and then idles mrGap of
// virtual time. One pass is one invocation per style. Every pass's
// per-style rows of simulated statistics must match the digest for its
// position in the set-up cycle (see checker).
var mapreduceWorkload = workload{
	name:           mapreduceName,
	minPasses:      mrCycle,
	passesPerSetup: mrCycle,
	setup: func(seed uint64, r *recorder) (instance, error) {
		chk, err := checkerFor(mapreduceName, seed)
		if err != nil {
			return nil, err
		}
		return setupMapReduce(seed, r, chk)
	},
	spanMetrics: func(r *recorder, vals map[string]float64) {
		var all []float64
		for _, impl := range mapreduce.New().ExtraImpls() {
			ms := r.all("core.invoke." + string(impl))
			for i := range ms {
				ms[i] *= 1e3
			}
			all = append(all, ms...)
			vals["core.invoke_ms.p50."+string(impl)] = quantile(ms, 0.5)
			vals["core.invoke_ms.p90."+string(impl)] = quantile(ms, 0.9)
		}
		vals["core.invoke_ms.p50"] = quantile(all, 0.5)
		vals["core.invoke_ms.p99"] = quantile(all, 0.99)
		vals["core.idle_s"] = r.perPass("core.idle")
		var deploys []float64
		for pass, ds := range r.durations("core.deploy") {
			if pass < 0 {
				deploys = append(deploys, sum(ds))
			}
		}
		vals["core.deploy_s"] = median(deploys)
	},
}

// mrClient is one style's deployment and its closed-loop client state.
type mrClient struct {
	impl core.Impl
	env  *core.Env
	dep  *core.Deployment
	tr   *span.Tracer
}

type mapreduceStyles struct {
	eng     *payload.Engine
	clients []*mrClient
	// want is the answer every invocation on every style must return.
	want []byte
	chk  *checker
	// passes counts the passes run since set-up: the next one's
	// position.
	passes int
}

// setupMapReduce deploys every style and warms each up with one
// invocation and one idle gap; the first answer becomes the reference
// all later ones must equal.
func setupMapReduce(seed uint64, r *recorder, chk *checker) (*mapreduceStyles, error) {
	wf := mapreduce.New()
	impls := wf.ExtraImpls()
	if len(impls) != mrStyles {
		return nil, fmt.Errorf("mapreduce lowers to %d styles %v, want %d", len(impls), impls, mrStyles)
	}
	m := &mapreduceStyles{eng: payload.NewEngine(), chk: chk}
	reg := metrics.NewRegistry()
	for _, impl := range impls {
		env := core.NewEnv(seed)
		env.Payload = m.eng
		tl := env.EnableTimeline(tseries.New(tseries.DefaultInterval))
		tr := env.EnableTracing()
		tr.Metrics = reg
		tr.Windows = tl
		end := r.begin("core.deploy")
		dep, err := wf.Deploy(env, impl)
		end()
		if err != nil {
			m.close()
			return nil, fmt.Errorf("deploy %s: %w", impl, err)
		}
		c := &mrClient{impl: impl, env: env, dep: dep, tr: tr}
		m.clients = append(m.clients, c)
		stats, err := c.invoke()
		if err == nil {
			err = stats.Err
		}
		if err != nil {
			m.close()
			return nil, fmt.Errorf("warm-up %s: %w", impl, err)
		}
		if m.want == nil {
			m.want = stats.Output
		} else if !bytes.Equal(stats.Output, m.want) {
			m.close()
			return nil, fmt.Errorf("warm-up %s: output differs from %s's", impl, impls[0])
		}
		env.K.RunUntil(env.K.Now() + mrGap)
	}
	return m, nil
}

var errMissing = errors.New("invocation did not complete")

// invoke runs one invocation under a root span, as core.Measure does,
// stepping the kernel until the client sees it complete.
func (c *mrClient) invoke() (core.RunStats, error) {
	var stats core.RunStats
	var err error
	done := false
	k := c.env.K
	k.Spawn("bench-client", func(p *sim.Proc) {
		run := c.tr.StartTrace(p.Now(), span.KindRun, "mapreduce/"+string(c.impl))
		p.TraceCtx = run.Context()
		stats, err = c.dep.Runner.Invoke(p, nil)
		run.End(p.Now())
		p.TraceCtx = sim.TraceContext{}
		done = true
	})
	limit := k.Now() + mrTimeout
	for !done {
		if k.Pending() == 0 || k.Now() >= limit {
			return stats, errMissing
		}
		k.RunUntil(k.Now() + mrStep)
	}
	return stats, err
}

// mrRow renders one style's simulated statistics for one pass: the
// run's outcome, answer digest and latencies, and the usage billed over
// the invocation and the idle gap after it, idle polls included.
func mrRow(impl core.Impl, stats core.RunStats, err error, u pricing.Usage) string {
	out := sha256.Sum256(stats.Output)
	return fmt.Sprintf("%s err=%v run_err=%v output=%x e2e=%d cold=%d exec=%d "+
		"requests=%d gb_s=%v stateful_txns=%d txns=%d blob_txns=%d billed_exec=%d\n",
		impl, err, stats.Err, out, stats.E2E, stats.ColdStart, stats.ExecTime,
		u.Requests, u.GBs, u.StatefulTxns, u.AllTxns, u.BlobTxns, u.Exec)
}

// pass invokes every style once, then lets its Env idle for mrGap.
// Billed usage is read across both, so idle polls are counted. The
// pass's invocations all fail if their rows' digest differs from the
// one for the pass's position.
func (m *mapreduceStyles) pass(r *recorder) passResult {
	st0 := m.eng.Stats()
	res := passResult{counts: map[string]float64{}}
	var rows strings.Builder
	for _, c := range m.clients {
		before := c.env.UsageFor(c.impl)
		events := c.env.K.Executed()
		end := r.begin("core.invoke." + string(c.impl))
		stats, err := c.invoke()
		end()
		res.ops++
		switch {
		case err != nil:
			res.failed++
			r.note("%s: %v", c.impl, err)
		case stats.Err != nil:
			res.failed++
			r.note("%s: run error: %v", c.impl, stats.Err)
		case !bytes.Equal(stats.Output, m.want):
			res.failed++
			r.note("%s: output differs from the reference answer", c.impl)
		default:
			res.units++
		}
		end = r.begin("core.idle")
		c.env.K.RunUntil(c.env.K.Now() + mrGap)
		end()
		u := c.env.UsageFor(c.impl).Sub(before)
		rows.WriteString(mrRow(c.impl, stats, err, u))
		res.counts["platform.invocations"] += float64(u.Requests)
		res.counts["platform.gb_s"] += u.GBs
		res.counts["cloud.txns"] += float64(u.AllTxns)
		res.counts["cloud.blob_txns"] += float64(u.BlobTxns)
		res.counts["billing.stateful_txns"] += float64(u.StatefulTxns)
		res.counts["sim.events"] += float64(c.env.K.Executed() - events)
	}
	if got, want, ok := m.chk.check(m.passes, rows.String()); !ok {
		r.note("pass %d: result rows digest %s, want %s:\n%s", m.passes, got, want, rows.String())
		res.failed = res.ops
		res.units = 0
	}
	m.passes++
	st := m.eng.Stats()
	for k, v := range payloadCounts(st.Hits-st0.Hits, st.Misses-st0.Misses, st.Bytes) {
		res.counts[k] = v
	}
	return res
}

// close stops every Env's background listeners and drains its kernel,
// so no simulated process outlives the instance.
func (m *mapreduceStyles) close() {
	for _, c := range m.clients {
		c.env.Stop()
		c.env.K.Run()
	}
	m.clients = nil
}
