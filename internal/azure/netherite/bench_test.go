package netherite_test

import (
	"encoding/json"
	"testing"
	"time"

	"statebench/internal/azure/durable"
	"statebench/internal/azure/functions"
	"statebench/internal/azure/netherite"
	"statebench/internal/platform"
	"statebench/internal/sim"
)

// benchParams is the queue-bound calibration: costs both backends pay
// identically — orchestrator replay CPU, host dispatch, the HTTP
// trigger round trip — are shrunk to near zero so what remains per
// episode is exactly what the stores differ on (queue hops and polling
// versus push delivery and group commits).
func benchParams() platform.AzureParams {
	params := testParams()
	params.HistoryReplayPerEvent = 0
	params.Dispatch = sim.Fixed{D: time.Millisecond}
	params.HTTPTriggerRTT = sim.Fixed{D: time.Millisecond}
	return params
}

func benchClassicEnv() *env {
	return newEnvParams(1, nil, benchParams(), func(k *sim.Kernel, h *functions.Host) (*durable.Hub, *netherite.Store) {
		return durable.NewHub(k, h, "hub"), nil
	})
}

func benchNetheriteEnv() *env {
	return newEnvParams(1, nil, benchParams(), func(k *sim.Kernel, h *functions.Host) (*durable.Hub, *netherite.Store) {
		store := netherite.NewStore(k, "hub", netherite.DefaultPartitions, h.Hooks())
		return durable.NewHubWithStore(k, h, "hub", store), store
	})
}

// registerTrainShape installs the mltrain durable-orchestrator DAG —
// prep, dimred, a three-way training fan-out joined with WaitAll, then
// select — with 1 ms of compute per activity, so the orchestration is
// queue-bound: framework transport, not the modeled ML work, dominates.
func registerTrainShape(tb testing.TB, hub *durable.Hub) {
	tb.Helper()
	act := func(ctx *functions.Context, in []byte) ([]byte, error) {
		ctx.Busy(time.Millisecond)
		return in, nil
	}
	for _, name := range []string{"bench-prep", "bench-dimred", "bench-train", "bench-select"} {
		if err := hub.RegisterActivity(name, 128, act); err != nil {
			tb.Fatal(err)
		}
	}
	if err := hub.RegisterOrchestrator("bench-mltrain", 128, func(ctx *durable.OrchestrationContext, input []byte) ([]byte, error) {
		enc, err := ctx.CallActivity("bench-prep", input).Await()
		if err != nil {
			return nil, err
		}
		proj, err := ctx.CallActivity("bench-dimred", enc).Await()
		if err != nil {
			return nil, err
		}
		var tasks []*durable.Task
		for i := 0; i < 3; i++ {
			in, _ := json.Marshal(i)
			tasks = append(tasks, ctx.CallActivity("bench-train", in))
		}
		if _, err := ctx.WaitAll(tasks...); err != nil {
			return nil, err
		}
		return ctx.CallActivity("bench-select", proj).Await()
	}); err != nil {
		tb.Fatal(err)
	}
}

// episodeThroughput runs back-to-back mltrain-shaped orchestrations and
// returns the hub's episode throughput in episodes per virtual second,
// measured from after a warmup run so cold start is excluded.
func episodeThroughput(tb testing.TB, mk func() *env) float64 {
	tb.Helper()
	const runs = 10
	e := mk()
	registerTrainShape(tb, e.hub)
	var elapsed time.Duration
	var episodes int64
	e.drive(func(p *sim.Proc) {
		if _, _, err := e.client.Run(p, "bench-mltrain", nil); err != nil { // warmup
			tb.Errorf("warmup: %v", err)
			return
		}
		start := p.Now()
		episodesAtStart := e.hub.EpisodeCount
		for i := 0; i < runs; i++ {
			if _, _, err := e.client.Run(p, "bench-mltrain", nil); err != nil {
				tb.Errorf("run: %v", err)
				return
			}
		}
		elapsed = time.Duration(p.Now() - start)
		episodes = e.hub.EpisodeCount - episodesAtStart
	})
	if elapsed <= 0 || episodes == 0 {
		tb.Fatalf("no work measured: elapsed=%v episodes=%d", elapsed, episodes)
	}
	return float64(episodes) / elapsed.Seconds()
}

// TestNetheriteEpisodeThroughputTarget pins the PR's performance
// acceptance target in virtual time (fully deterministic, so it can
// gate CI): on the queue-bound mltrain orchestration, push delivery
// plus group commits must sustain at least 5x the classic hub's
// episode throughput.
func TestNetheriteEpisodeThroughputTarget(t *testing.T) {
	classic := episodeThroughput(t, benchClassicEnv)
	neth := episodeThroughput(t, benchNetheriteEnv)
	t.Logf("episodes/vsec: classic=%.1f netherite=%.1f (%.1fx)", classic, neth, neth/classic)
	if neth < 5*classic {
		t.Fatalf("netherite episode throughput %.1f/vsec < 5x classic %.1f/vsec", neth, classic)
	}
}

// The bench pair behind BENCH_PR8.json: wall-clock cost of simulating
// each hub, with virtual episode throughput as a custom metric so the
// model-level speedup is tracked alongside the simulator's own cost.
func benchHub(b *testing.B, mk func() *env) {
	var tput float64
	for i := 0; i < b.N; i++ {
		tput = episodeThroughput(b, mk)
	}
	b.ReportMetric(tput, "episodes/vsec")
}

func BenchmarkClassicHubEpisodeThroughput(b *testing.B) {
	benchHub(b, benchClassicEnv)
}

func BenchmarkNetheriteHubEpisodeThroughput(b *testing.B) {
	benchHub(b, benchNetheriteEnv)
}
