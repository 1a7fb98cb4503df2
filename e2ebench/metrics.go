package main

import "fmt"

// metricDef describes one reported metric. The end-to-end and per-layer
// tables below are the benchmark's single definition of its metrics;
// spec_test.go checks that BENCHMARK.json at the repository root lists
// exactly the same names, units, directions and bounds.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // lower or higher
	Bound  float64 // worst tolerated worsening as a share of the parent median; 0 for per-layer metrics
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the library sees, measured with no
// observer attached. Every bound is 0.25: on a shared 2-core host, runs
// minutes apart differ by 10-15% in wall time, and by more while the
// host is contended.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"job_ms_p50", "ms", lower, 0.25},
	{"job_ms_tail", "ms", lower, 0.25},
	{"rows_per_s", "rows/s", higher, 0.25},
	{"alloc_mib_per_job", "MiB", lower, 0.25},
	{"peak_rss_mib", "MiB", lower, 0.25},
}

// perLayer are the metrics of the traced run. Stage metrics are named
// "<observe stage>.<counter>" so they match SSE, /telemetry and
// /debug/vars; each value is the median over the traced jobs. Counts
// of work are better lower; counts that describe the output (FDs, keys,
// tables) carry "lower" only because every metric needs a direction.
var perLayer = []metricDef{
	// ingest (internal/ingest)
	{"ingest.ms", "ms", lower, 0},
	{"ingest.rows", "count", lower, 0},
	{"ingest.spill_events", "count", lower, 0},
	// discovery/hyfd + wsteal
	{"fd-discovery.ms", "ms", lower, 0},
	{"fd-discovery.agree_sets_sampled", "count", lower, 0},
	{"fd-discovery.fds_induced", "count", lower, 0},
	{"fd-discovery.candidates_checked", "count", lower, 0},
	{"fd-discovery.plis_intersected", "count", lower, 0},
	{"fd-discovery.fds_discovered", "count", lower, 0},
	{"fd-discovery.validation_steals", "count", lower, 0},
	{"fd-discovery.useful_ratio", "ratio", higher, 0},
	// plicache / plistore
	{"fd-discovery.substrate_builds", "count", lower, 0},
	{"fd-discovery.substrate_derived", "count", lower, 0},
	{"fd-discovery.substrate_hits", "count", higher, 0},
	{"fd-discovery.pli_compressed_bytes", "bytes", lower, 0},
	{"fd-discovery.pli_spill_events", "count", lower, 0},
	{"fd-discovery.pli_reloads", "count", lower, 0},
	{"fd-discovery.pli_recomputes", "count", lower, 0},
	{"fd-discovery.pli_resident_bytes", "bytes", lower, 0},
	// closure
	{"closure.ms", "ms", lower, 0},
	{"closure.rhs_attrs_added", "count", lower, 0},
	// keys and violation detection; the overlapped share is replayed
	// concurrent pre-analysis and is not on the blocking path
	{"key-derivation.ms", "ms", lower, 0},
	{"key-derivation.overlapped_ms", "ms", lower, 0},
	{"key-derivation.keys_derived", "count", lower, 0},
	{"violation-detection.ms", "ms", lower, 0},
	{"violation-detection.overlapped_ms", "ms", lower, 0},
	{"violation-detection.violations_found", "count", lower, 0},
	// core: selection (scoring) and decomposition
	{"violating-fd-selection.ms", "ms", lower, 0},
	{"violating-fd-selection.candidates_scored", "count", lower, 0},
	{"decomposition.ms", "ms", lower, 0},
	{"decomposition.decompositions", "count", lower, 0},
	{"decomposition.rows_materialized", "count", lower, 0},
	// discovery/ucc (primary key)
	{"primary-key-selection.ms", "ms", lower, 0},
	{"primary-key-selection.uccs_discovered", "count", lower, 0},
	{"primary-key-selection.plis_intersected", "count", lower, 0},
	// delta
	{"fd-discovery.delta_fds_checked", "count", lower, 0},
	{"fd-discovery.delta_fds_demoted", "count", lower, 0},
	{"fd-discovery.delta_lattice_reused", "count", lower, 0},
	{"delta.checked_frac", "ratio", lower, 0},
	// sqlgen
	{"ddl.ms", "ms", lower, 0},
	// the whole traced job and its blocking path
	{"job.traced_ms", "ms", lower, 0},
	{"job.blocking_ms", "ms", lower, 0},
	{"normalize.unstaged_ms", "ms", lower, 0},
	// Table 3 components, timed as public calls on the root relation
	{"table3.hyfd_ms", "ms", lower, 0},
	{"table3.closure_ms", "ms", lower, 0},
	{"table3.keys_ms", "ms", lower, 0},
	{"table3.violation_ms", "ms", lower, 0},
	{"trace_overhead_frac", "ratio", lower, 0},
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect builds the metrics object for defs from values, in which
// every defined metric must be present.
func collect(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}
