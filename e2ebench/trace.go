package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"normalize"
	"normalize/internal/bitset"
	"normalize/internal/closure"
	"normalize/internal/discovery/hyfd"
	"normalize/internal/keys"
	"normalize/internal/violation"
)

// span is one recorded interval. Pipeline stages report their own
// duration; a stage whose reported duration exceeds the wall time
// between its start and finish events was computed earlier, in
// parallel, and replayed (the concurrent pre-analysis of key derivation
// and violation detection), so it is marked overlapped and kept off the
// blocking path.
type span struct {
	Proc       int     `json:"proc"`
	Job        int     `json:"job"`
	Name       string  `json:"name"`
	Parent     string  `json:"parent,omitempty"`
	StartMs    float64 `json:"start_ms"` // since the process's origin
	EndMs      float64 `json:"end_ms"`
	ReportedMs float64 `json:"reported_ms"`
	Overlapped bool    `json:"overlapped,omitempty"`
}

// tracer is the benchmark's observer for one job: it keeps spans and
// "<stage>.<counter>" sums in memory. It is safe for concurrent use, as
// the library's discovery workers report counters concurrently.
type tracer struct {
	proc, job int
	origin    time.Time

	mu       sync.Mutex
	open     map[normalize.Stage][]time.Time
	spans    []span
	counters map[string]int64
}

func newTracer(proc, job int, origin time.Time) *tracer {
	return &tracer{proc: proc, job: job, origin: origin, open: map[normalize.Stage][]time.Time{}, counters: map[string]int64{}}
}

func (t *tracer) ms(at time.Time) float64 { return float64(at.Sub(t.origin)) / 1e6 }

// StageStart opens a span for stage.
func (t *tracer) StageStart(stage normalize.Stage) {
	now := time.Now()
	t.mu.Lock()
	t.open[stage] = append(t.open[stage], now)
	t.mu.Unlock()
}

// Counter adds delta to the stage's counter.
func (t *tracer) Counter(stage normalize.Stage, name string, delta int64) {
	if stage == normalize.StageIngest {
		// ingest_rows → ingest.rows, as the stage already names it.
		name = strings.TrimPrefix(name, "ingest_")
	}
	t.mu.Lock()
	t.counters[string(stage)+"."+name] += delta
	t.mu.Unlock()
}

// StageFinish closes the stage's most recent open span.
func (t *tracer) StageFinish(stage normalize.Stage, elapsed time.Duration) {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	start := now.Add(-elapsed)
	if st := t.open[stage]; len(st) > 0 {
		start = st[len(st)-1]
		t.open[stage] = st[:len(st)-1]
	}
	parent := "call.normalize"
	if stage == normalize.StageIngest {
		parent = "call.ingest"
	}
	t.spans = append(t.spans, span{
		Proc: t.proc, Job: t.job, Name: string(stage), Parent: parent,
		StartMs: t.ms(start), EndMs: t.ms(now),
		ReportedMs: float64(elapsed) / 1e6,
		Overlapped: elapsed > now.Sub(start),
	})
}

// snapshot copies the counters; nil for a nil tracer.
func (t *tracer) snapshot() map[string]int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c := make(map[string]int64, len(t.counters))
	for k, v := range t.counters {
		c[k] = v
	}
	return c
}

// observer returns t as the library's observer, or nil for an
// untraced job.
func (t *tracer) observer() normalize.Observer {
	if t == nil {
		return nil
	}
	return t
}

// call ends the benchmark's span around a library call that began at
// start and returns its duration. A nil tracer only times the call.
func (t *tracer) call(name string, start time.Time) time.Duration {
	return t.record(name, "job", start)
}

// record ends a benchmark-owned span that began at start under parent
// and returns its duration.
func (t *tracer) record(name, parent string, start time.Time) time.Duration {
	end := time.Now()
	d := end.Sub(start)
	if t == nil {
		return d
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Proc: t.proc, Job: t.job, Name: name, Parent: parent,
		StartMs: t.ms(start), EndMs: t.ms(end), ReportedMs: float64(d) / 1e6,
	})
	return d
}

// layers turns one traced job into its per-layer values.
func (t *tracer) layers(out jobOutput, wall time.Duration) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	v := make(map[string]float64, len(perLayer))
	for k, c := range t.counters {
		v[k] = float64(c)
	}
	var blocking []span
	for _, s := range t.spans {
		if s.Parent != "call.normalize" {
			continue
		}
		v[s.Name+".ms"] += s.ReportedMs
		if s.Overlapped {
			v[s.Name+".overlapped_ms"] += s.ReportedMs
		} else {
			blocking = append(blocking, s)
		}
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	v["ingest.ms"] = ms(out.ingest)
	v["ddl.ms"] = ms(out.ddlTime)
	v["job.traced_ms"] = ms(wall)
	covered := unionMs(blocking)
	v["job.blocking_ms"] = ms(out.ingest) + covered + ms(out.ddlTime)
	v["normalize.unstaged_ms"] = ms(out.normalize) - covered
	v["fd-discovery.useful_ratio"] = ratio(v["fd-discovery.fds_discovered"], v["fd-discovery.candidates_checked"])
	checked, reused := v["fd-discovery.delta_fds_checked"], v["fd-discovery.delta_lattice_reused"]
	v["delta.checked_frac"] = ratio(checked, checked+reused)
	return v
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// unionMs is the length of the union of the spans' intervals.
func unionMs(spans []span) float64 {
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].StartMs < s[j].StartMs })
	total, end := 0.0, 0.0
	for i, x := range s {
		if i == 0 || x.StartMs > end {
			total += x.EndMs - x.StartMs
			end = x.EndMs
		} else if x.EndMs > end {
			total += x.EndMs - end
			end = x.EndMs
		}
	}
	return total
}

// medianLayers takes every per-layer metric's median over the traced
// jobs; a metric a job did not report counts as 0 for it.
func medianLayers(jobs []map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		xs := make([]float64, len(jobs))
		for i, j := range jobs {
			xs[i] = j[d.Name]
		}
		out[d.Name] = median(xs)
	}
	return out
}

// table3Reps is how often the Table 3 components are timed; the median
// is reported.
const table3Reps = 3

// timeTable3 times the paper's Table 3 components as public calls on
// rel: HyFD discovery, the optimized closure, key derivation and
// violation detection.
func timeTable3(ctx context.Context, rel *normalize.Relation, maxLhs, workers int) (map[string]float64, error) {
	var hy, cl, ke, vi []float64
	ms := func(since time.Time) float64 { return float64(time.Since(since)) / 1e6 }
	n := rel.NumAttrs()
	nulls := bitset.New(n)
	for c := 0; c < n; c++ {
		if rel.HasNull(c) {
			nulls.Add(c)
		}
	}
	all := bitset.Full(n)
	for r := 0; r < table3Reps; r++ {
		t := time.Now()
		fds, err := hyfd.DiscoverContext(ctx, rel, hyfd.Options{MaxLhs: maxLhs, Workers: workers})
		if err != nil {
			return nil, fmt.Errorf("table 3 discovery: %w", err)
		}
		hy = append(hy, ms(t))
		t = time.Now()
		if _, err := closure.OptimizedParallelContext(ctx, fds, workers); err != nil {
			return nil, fmt.Errorf("table 3 closure: %w", err)
		}
		cl = append(cl, ms(t))
		t = time.Now()
		derived := keys.Derive(fds, all)
		ke = append(ke, ms(t))
		t = time.Now()
		violation.Detect(violation.Input{FDs: fds, Keys: derived, RelAttrs: all, NullAttrs: nulls})
		vi = append(vi, ms(t))
	}
	return map[string]float64{
		"table3.hyfd_ms":      median(hy),
		"table3.closure_ms":   median(cl),
		"table3.keys_ms":      median(ke),
		"table3.violation_ms": median(vi),
	}, nil
}

// traceFile is what a traced run writes out when it ends.
type traceFile struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Layers   map[string]float64   `json:"layers"` // medians over Jobs
	Jobs     []map[string]float64 `json:"jobs"`   // per-layer values of each traced job
	Spans    []span               `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	data, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
