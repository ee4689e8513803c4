package tseries

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"statebench/internal/obs/metrics"
)

// This file is the live export surface: a tiny HTTP server that lets a
// human (or a Prometheus scraper) watch a long run in wall-clock time
// while the simulation advances in virtual time. The server only ever
// *reads* — it pulls an immutable snapshot from the source function on
// each request — so it cannot perturb the simulation, and shutting it
// down (or never starting it) leaves results byte-identical.
//
// Endpoints:
//
//	/               index with links
//	/metrics        Prometheus text: run totals, latest-window stats,
//	                and progress gauges, refreshed per window, followed
//	                by the metrics registry's families (chaos, payload
//	                cache, span-derived) when one is attached
//	/timeseries.csv the full per-window CSV (same schema as -timeline)
//	/timeseries.json the per-window JSON array
//	/progress       run progress as JSON

// SnapshotFunc supplies the server with a consistent (series, progress)
// pair; typically Collector.Snapshot.
type SnapshotFunc func() (*Series, Progress)

// LiveServer is a running live-telemetry HTTP server.
type LiveServer struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the bound address (useful with ":0" test listeners).
func (s *LiveServer) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down immediately.
func (s *LiveServer) Close() error { return s.srv.Close() }

// ServeLive binds addr (e.g. ":9090" or "127.0.0.1:0") and serves the
// live-telemetry endpoints from src in a background goroutine; /metrics
// appends reg's exposition (nil reg: timeline families only), byte for
// byte what reg.WritePrometheus writes to a -metrics file. The returned
// server should be Closed when the run finishes (after a final scrape
// window, if a scraper is attached).
func ServeLive(addr string, src SnapshotFunc, reg *metrics.Registry) (*LiveServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("live endpoint: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, `<html><body><h1>statebench live telemetry</h1><ul>`+
			`<li><a href="/metrics">/metrics</a> (Prometheus)</li>`+
			`<li><a href="/timeseries.csv">/timeseries.csv</a></li>`+
			`<li><a href="/timeseries.json">/timeseries.json</a></li>`+
			`<li><a href="/progress">/progress</a></li>`+
			`</ul></body></html>`)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		s, p := src()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, PrometheusText(s, p))
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/timeseries.csv", func(w http.ResponseWriter, r *http.Request) {
		s, _ := src()
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		s.WriteCSV(w)
	})
	mux.HandleFunc("/timeseries.json", func(w http.ResponseWriter, r *http.Request) {
		s, _ := src()
		w.Header().Set("Content-Type", "application/json")
		s.WriteJSON(w)
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, r *http.Request) {
		_, p := src()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(p)
	})
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	ls := &LiveServer{ln: ln, srv: srv}
	go srv.Serve(ln)
	return ls, nil
}

// PrometheusText renders the series and progress in Prometheus text
// exposition format: cumulative run totals, the latest non-empty
// window's stats (labelled with its index, so a scraper sees a fresh
// sample per window), and progress gauges. Output for a fixed snapshot
// is deterministic: families and labels are emitted in a fixed order.
func PrometheusText(s *Series, p Progress) string {
	var b strings.Builder
	arr, comp, colds, faults := s.Totals()
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("statebench_timeline_arrivals_total", "Arrivals across the run.", arr)
	counter("statebench_timeline_completions_total", "Completions across the run.", comp)
	counter("statebench_timeline_cold_starts_total", "Cold starts across the run.", colds)
	counter("statebench_timeline_faults_total", "Injected faults across the run.", faults)

	if s.Len() > 0 {
		idxs := s.Indices()
		var last int64 = -1
		for i := len(idxs) - 1; i >= 0; i-- {
			if !s.At(idxs[i]).empty() {
				last = idxs[i]
				break
			}
		}
		if last >= 0 {
			w := s.At(last)
			lbl := fmt.Sprintf(`{window="%d"}`, last)
			gauge := func(name, help string, format string, v interface{}) {
				fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s%s "+format+"\n",
					name, help, name, name, lbl, v)
			}
			gauge("statebench_window_arrivals", "Arrivals in the latest window.", "%d", w.Arrivals)
			gauge("statebench_window_completions", "Completions in the latest window.", "%d", w.Completions)
			gauge("statebench_window_cold_starts", "Cold starts in the latest window.", "%d", w.Colds)
			gauge("statebench_window_faults", "Injected faults in the latest window.", "%d", w.Faults)
			gauge("statebench_window_queue_depth", "Peak queue depth in the latest window.", "%d", w.QueueDepth)
			gauge("statebench_window_warm_pool", "Peak warm-pool occupancy in the latest window.", "%d", w.WarmPool)
			gauge("statebench_window_e2e_p99_seconds", "End-to-end p99 of the latest window.", "%g", w.E2E.P99().Seconds())
			gauge("statebench_window_sched_p99_seconds", "Scheduling-delay p99 of the latest window.", "%g", w.Sched.P99().Seconds())
			gauge("statebench_window_cold_p50_seconds", "Cold-start p50 of the latest window.", "%g", w.Cold.Median().Seconds())
		}
	}

	fmt.Fprintf(&b, "# HELP statebench_progress_virtual_seconds Virtual time reached by the producer.\n"+
		"# TYPE statebench_progress_virtual_seconds gauge\nstatebench_progress_virtual_seconds %g\n",
		p.VirtualTime.Seconds())
	fmt.Fprintf(&b, "# HELP statebench_progress_done Completed work units.\n"+
		"# TYPE statebench_progress_done gauge\nstatebench_progress_done %d\n", p.Done)
	fmt.Fprintf(&b, "# HELP statebench_progress_total Total work units.\n"+
		"# TYPE statebench_progress_total gauge\nstatebench_progress_total %d\n", p.Total)
	return b.String()
}

// WriteAnomalyLog renders anomalies as a fixed-width text log, one line
// per incident, sorted as Detect returned them. Used by the timeline
// report.
func WriteAnomalyLog(b *strings.Builder, anoms []Anomaly) {
	if len(anoms) == 0 {
		fmt.Fprintf(b, "  (no anomalies)\n")
		return
	}
	for _, a := range anoms {
		span := fmt.Sprintf("[%v,%v)", a.Start, a.End)
		fmt.Fprintf(b, "  %-14s w%-4d %-16s %s", a.Rule, a.Window, span, a.Detail)
		if len(a.TraceIDs) > 0 {
			ids := make([]string, len(a.TraceIDs))
			for i, id := range a.TraceIDs {
				ids[i] = fmt.Sprintf("%d", id)
			}
			fmt.Fprintf(b, " [traces %s]", strings.Join(ids, ","))
		}
		b.WriteByte('\n')
	}
}
