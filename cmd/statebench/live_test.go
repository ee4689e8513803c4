package main

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"statebench/internal/obs/metrics"
	"statebench/internal/obs/tseries"
)

// TestLiveMetricsServeRegistry pins the -live /metrics surface: after
// the timeline families it serves the metrics registry — here holding
// a chaos counter, a family that used to reach only the -metrics file —
// and that registry part is byte-identical to the -metrics file. A
// writer records concurrently with the scrapes, as campaign workers do
// during a live run.
func TestLiveMetricsServeRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Inc("statebench_chaos_faults_total", 1, metrics.L("component", "lambda"), metrics.L("kind", "crash"))
	tlc := tseries.NewCollector(0)
	srv, err := tseries.ServeLive("127.0.0.1:0", tlc.Snapshot, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	scrape := func() string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				reg.Inc("statebench_payload_cache_hits_total", 1)
			}
		}
	}()
	for i := 0; i < 3; i++ {
		scrape()
	}
	close(stop)
	<-done

	got := scrape()
	if !strings.Contains(got, `statebench_chaos_faults_total{component="lambda",kind="crash"} 1`) {
		t.Fatalf("/metrics lacks the chaos family:\n%s", got)
	}
	path := filepath.Join(t.TempDir(), "metrics.prom")
	if err := writeMetricsFile(path, reg); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, p := tlc.Snapshot()
	if want := tseries.PrometheusText(s, p) + string(file); got != want {
		t.Fatalf("/metrics is not the timeline families followed by the -metrics file:\n%s\nwant:\n%s", got, want)
	}
}
