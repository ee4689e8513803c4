// Package trace is the simulation's CloudWatch / Application Insights
// analogue: an append-only collector of structured invocation records
// that the paper's methodology reads results from ("we often relied on
// AWS CloudWatch and Azure Application Insight to collect the
// results"). Queries filter by function, kind, and virtual-time window.
// No simulated service emits into a Collector: spans
// (internal/obs/span) carry the same per-invocation facts.
package trace

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"statebench/internal/sim"
)

// Kind classifies a record.
type Kind string

// Record kinds.
const (
	KindInvocation Kind = "invocation"
	KindColdStart  Kind = "coldstart"
	KindError      Kind = "error"
	KindCustom     Kind = "custom"
)

// Record is one structured log entry.
type Record struct {
	At       sim.Time
	Kind     Kind
	Function string
	// Duration is the execution time for invocation records.
	Duration time.Duration
	// Detail is free-form context (error text, custom payloads).
	Detail string
}

// String renders the record as a log line.
func (r Record) String() string {
	return fmt.Sprintf("%-12v %-10s %-24s %-10v %s", r.At, r.Kind, r.Function, r.Duration, r.Detail)
}

// Collector accumulates records in arrival order.
type Collector struct {
	name    string
	records []Record
	// Cap bounds retention (0 = unlimited); the oldest records are
	// dropped first, like a log group retention policy.
	Cap int

	// maxAt/unsorted track whether records arrived in nondecreasing
	// time order. Simulation hosts emit in kernel execution order, so
	// the common case stays sorted and window queries can binary-search;
	// an out-of-order Emit flips unsorted and queries fall back to a
	// full scan.
	maxAt    sim.Time
	unsorted bool
}

// NewCollector returns an empty collector named name.
func NewCollector(name string) *Collector { return &Collector{name: name} }

// Name returns the collector (log group) name.
func (c *Collector) Name() string { return c.name }

// Len returns the number of retained records.
func (c *Collector) Len() int { return len(c.records) }

// Emit appends a record, enforcing the retention cap.
func (c *Collector) Emit(r Record) {
	if r.At < c.maxAt {
		c.unsorted = true
	} else {
		c.maxAt = r.At
	}
	c.records = append(c.records, r)
	if c.Cap > 0 && len(c.records) > c.Cap {
		c.records = c.records[len(c.records)-c.Cap:]
	}
}

// Invocation logs one execution.
func (c *Collector) Invocation(at sim.Time, fn string, d time.Duration) {
	c.Emit(Record{At: at, Kind: KindInvocation, Function: fn, Duration: d})
}

// ColdStart logs one cold start.
func (c *Collector) ColdStart(at sim.Time, fn string, d time.Duration) {
	c.Emit(Record{At: at, Kind: KindColdStart, Function: fn, Duration: d})
}

// Error logs a failed execution.
func (c *Collector) Error(at sim.Time, fn, detail string) {
	c.Emit(Record{At: at, Kind: KindError, Function: fn, Detail: detail})
}

// Query filters retained records. Zero-valued fields match everything.
//
// The time window is [From, Until]. Historically Until == 0 meant "no
// upper bound", which made the legitimate window [0, 0] inexpressible
// — a query for records at virtual time zero silently matched the whole
// log. Set Bounded to make Until an inclusive upper bound even when it
// is zero; with Bounded unset the legacy convention (Until <= 0 means
// unbounded) still applies.
type Query struct {
	Kind     Kind
	Function string
	From     sim.Time
	Until    sim.Time
	// Bounded forces Until to act as an upper bound regardless of its
	// value (fixing the Until: 0 ambiguity).
	Bounded bool
}

// bounded reports whether q has an upper bound, and returns it.
func (q Query) bounded() (sim.Time, bool) {
	if q.Bounded {
		return q.Until, true
	}
	if q.Until > 0 {
		return q.Until, true
	}
	return 0, false
}

// match reports whether r passes q's kind/function filters (the time
// window is handled by forEach's scan bounds).
func (q Query) match(r Record) bool {
	if q.Kind != "" && r.Kind != q.Kind {
		return false
	}
	if q.Function != "" && r.Function != q.Function {
		return false
	}
	return true
}

// forEach visits the records matching q in arrival order without
// materializing a slice. When records arrived in time order, the
// window's start index is found by binary search and the scan stops at
// the first record past the upper bound; otherwise it degrades to a
// filtered full scan.
func (c *Collector) forEach(q Query, fn func(r Record)) {
	until, hasUntil := q.bounded()
	recs := c.records
	if !c.unsorted && q.From > 0 {
		i, _ := slices.BinarySearchFunc(recs, q.From, func(r Record, t sim.Time) int {
			if r.At < t {
				return -1
			}
			return 1 // never report equality: lands on the first At >= t
		})
		recs = recs[i:]
	}
	for _, r := range recs {
		if r.At < q.From {
			continue // only reachable on the unsorted path
		}
		if hasUntil && r.At > until {
			if c.unsorted {
				continue
			}
			break // sorted: nothing later can re-enter the window
		}
		if q.match(r) {
			fn(r)
		}
	}
}

// Select returns the records matching q, in arrival order.
func (c *Collector) Select(q Query) []Record {
	var out []Record
	c.forEach(q, func(r Record) { out = append(out, r) })
	return out
}

// Count returns the number of records matching q without materializing
// them.
func (c *Collector) Count(q Query) int {
	n := 0
	c.forEach(q, func(Record) { n++ })
	return n
}

// Durations extracts the Duration field of the matching records.
func (c *Collector) Durations(q Query) []time.Duration {
	out := make([]time.Duration, 0, c.Count(q))
	c.forEach(q, func(r Record) { out = append(out, r.Duration) })
	return out
}

// Summary aggregates matching invocation records per function:
// count, total and max duration — the per-function view a CloudWatch
// dashboard gives.
type Summary struct {
	Function string
	Count    int
	Total    time.Duration
	Max      time.Duration
}

// Summarize groups matching records by function, sorted by name. It
// aggregates through forEach, so no intermediate record slice is built
// even over large windows.
func (c *Collector) Summarize(q Query) []Summary {
	byFn := map[string]*Summary{}
	c.forEach(q, func(r Record) {
		s := byFn[r.Function]
		if s == nil {
			s = &Summary{Function: r.Function}
			byFn[r.Function] = s
		}
		s.Count++
		s.Total += r.Duration
		if r.Duration > s.Max {
			s.Max = r.Duration
		}
	})
	out := make([]Summary, 0, len(byFn))
	for _, s := range byFn {
		out = append(out, *s)
	}
	slices.SortFunc(out, func(a, b Summary) int { return strings.Compare(a.Function, b.Function) })
	return out
}

// Dump renders the matching records as log text.
func (c *Collector) Dump(q Query) string {
	var sb strings.Builder
	c.forEach(q, func(r Record) {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	})
	return sb.String()
}
