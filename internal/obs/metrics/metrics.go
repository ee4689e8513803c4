// Package metrics is a lightweight metrics registry for the simulator:
// counters, gauges, and histograms keyed by name + labels, with
// deterministic (sorted) iteration order and a Prometheus text-format
// exporter.
//
// The registry is the simulated analogue of the CloudWatch / Application
// Insights metric stores the paper read its results from. It is fed by
// the span tracer (internal/obs/span) at span end, and can additionally
// be fed directly from instrumentation points.
//
// Determinism contract: a Registry may be shared by several concurrently
// running campaigns (guarded by an internal mutex), so every write
// operation is commutative — counters and histogram buckets add, gauges
// merge by max. The final exported state therefore does not depend on
// the interleaving of campaign goroutines, which keeps `-metrics` output
// byte-identical at any `-parallel` worker count.
package metrics

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Label is one name=value metric dimension.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// kind discriminates the series types for TYPE lines and rendering.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

// defBuckets are the histogram upper bounds, in seconds. They span the
// range the simulation produces: sub-millisecond queue ops up to
// multi-minute workflow runs.
var defBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60, 120, 300, 600, 1800,
}

// series is one (name, labels) time series.
//
// Counter values and histogram sums accumulate in integer micro-units
// rather than float64: integer addition is associative, so the totals
// (and their rendered form) cannot depend on which campaign goroutine's
// writes landed first. Float accumulation would drift in the last ULP
// under different interleavings and break byte-identical exports.
type series struct {
	name   string
	labels string // rendered `k="v",...` with keys sorted; "" if none
	kind   kind
	val    float64 // gauge max
	cntU   int64   // counter total in micro-units (1e-6)

	// histogram state (kind == kindHistogram)
	buckets []uint64 // cumulative-at-export; stored per-bucket counts
	count   uint64
	sumU    int64 // observation total in micro-units (1e-6)
}

// toMicro converts a float value to integer micro-units, rounding to
// nearest. Integral inputs below ~9e12 convert exactly.
func toMicro(v float64) int64 { return int64(math.Round(v * 1e6)) }

func fromMicro(u int64) float64 { return float64(u) / 1e6 }

// Registry holds metric series. The zero value is not usable; call
// NewRegistry. A nil *Registry is safe to call: every method is a no-op,
// which gives instrumentation sites a zero-cost disabled path.
type Registry struct {
	mu     sync.Mutex
	series map[string]*series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{series: make(map[string]*series)}
}

// Inc adds v to the counter name{labels...}.
func (r *Registry) Inc(name string, v float64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	s := r.get(name, kindCounter, labels)
	s.cntU += toMicro(v)
	r.mu.Unlock()
}

// SetMax raises the gauge name{labels...} to v if v exceeds its current
// value. Max-merge (rather than last-write) keeps concurrent campaign
// writers commutative.
func (r *Registry) SetMax(name string, v float64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	s := r.get(name, kindGauge, labels)
	if v > s.val {
		s.val = v
	}
	r.mu.Unlock()
}

// Observe records v (in seconds, by convention) into the histogram
// name{labels...}.
func (r *Registry) Observe(name string, v float64, labels ...Label) {
	if r == nil {
		return
	}
	r.mu.Lock()
	s := r.get(name, kindHistogram, labels)
	if s.buckets == nil {
		s.buckets = make([]uint64, len(defBuckets))
	}
	i := sort.SearchFloat64s(defBuckets, v)
	if i < len(s.buckets) {
		s.buckets[i]++
	}
	s.count++
	s.sumU += toMicro(v)
	r.mu.Unlock()
}

// get finds or creates the series for (name, labels). Caller holds mu.
func (r *Registry) get(name string, k kind, labels []Label) *series {
	lab := renderLabels(labels)
	key := name + "\x00" + lab
	s, ok := r.series[key]
	if !ok {
		s = &series{name: name, labels: lab, kind: k}
		r.series[key] = s
	}
	return s
}

// SpanFinished implements span.MetricsSink: every finished span
// increments a per-kind counter and feeds a per-(kind, name) duration
// histogram. Names at instrumentation points are bounded (function and
// stage names, not per-run identifiers), keeping cardinality small.
func (r *Registry) SpanFinished(kind, name string, seconds float64) {
	if r == nil {
		return
	}
	r.Inc("statebench_spans_total", 1, L("kind", kind))
	r.Observe("statebench_span_duration_seconds", seconds, L("kind", kind), L("name", name))
}

// Merge folds o's series into r. Counters and histograms add, gauges
// merge by max, so merge order does not matter.
func (r *Registry) Merge(o *Registry) {
	if r == nil || o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	for key, os := range o.series {
		s, ok := r.series[key]
		if !ok {
			s = &series{name: os.name, labels: os.labels, kind: os.kind}
			r.series[key] = s
		}
		switch os.kind {
		case kindCounter:
			s.cntU += os.cntU
		case kindGauge:
			if os.val > s.val {
				s.val = os.val
			}
		case kindHistogram:
			if s.buckets == nil && os.buckets != nil {
				s.buckets = make([]uint64, len(defBuckets))
			}
			for i, c := range os.buckets {
				s.buckets[i] += c
			}
			s.count += os.count
			s.sumU += os.sumU
		}
	}
}

// Len returns the number of series.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.series)
}

// CounterValue returns the value of the counter name{labels...}, or 0
// if it does not exist. Intended for tests.
func (r *Registry) CounterValue(name string, labels ...Label) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[name+"\x00"+renderLabels(labels)]; ok {
		return fromMicro(s.cntU)
	}
	return 0
}

// WritePrometheus renders every series in Prometheus text exposition
// format, sorted by metric name then label set, so output is
// byte-stable for a given set of recorded values. It renders under the
// registry lock, so a live scrape may run while campaigns record.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	all := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		all = append(all, s)
	}
	slices.SortFunc(all, func(a, b *series) int {
		if a.name != b.name {
			return strings.Compare(a.name, b.name)
		}
		return strings.Compare(a.labels, b.labels)
	})

	var sb strings.Builder
	lastName := ""
	for _, s := range all {
		if s.name != lastName {
			fmt.Fprintf(&sb, "# TYPE %s %s\n", s.name, typeName(s.kind))
			lastName = s.name
		}
		switch s.kind {
		case kindCounter:
			fmt.Fprintf(&sb, "%s%s %s\n", s.name, wrapLabels(s.labels, ""), formatFloat(fromMicro(s.cntU)))
		case kindGauge:
			fmt.Fprintf(&sb, "%s%s %s\n", s.name, wrapLabels(s.labels, ""), formatFloat(s.val))
		case kindHistogram:
			cum := uint64(0)
			for i, c := range s.buckets {
				cum += c
				fmt.Fprintf(&sb, "%s_bucket%s %d\n",
					s.name, wrapLabels(s.labels, fmt.Sprintf(`le="%s"`, formatFloat(defBuckets[i]))), cum)
			}
			fmt.Fprintf(&sb, "%s_bucket%s %d\n", s.name, wrapLabels(s.labels, `le="+Inf"`), s.count)
			fmt.Fprintf(&sb, "%s_sum%s %s\n", s.name, wrapLabels(s.labels, ""), formatFloat(fromMicro(s.sumU)))
			fmt.Fprintf(&sb, "%s_count%s %d\n", s.name, wrapLabels(s.labels, ""), s.count)
		}
	}
	r.mu.Unlock()
	_, err := io.WriteString(w, sb.String())
	return err
}

func typeName(k kind) string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// renderLabels renders labels as `k="v",...` with keys sorted.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := slices.Clone(labels)
	slices.SortFunc(ls, func(a, b Label) int { return strings.Compare(a.Key, b.Key) })
	var sb strings.Builder
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `%s=%q`, l.Key, l.Value)
	}
	return sb.String()
}

// wrapLabels combines a pre-rendered label string with an extra label
// (for histogram le) into a `{...}` block, or "" if both are empty.
func wrapLabels(labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return ""
	case labels == "":
		return "{" + extra + "}"
	case extra == "":
		return "{" + labels + "}"
	default:
		return "{" + labels + "," + extra + "}"
	}
}

// formatFloat renders a float the way Prometheus clients do: integers
// without a decimal point, everything else in shortest form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
