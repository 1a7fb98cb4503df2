package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"normalize"
)

// maxLhs is the FD left-hand-side bound of every workload: the paper's
// Section 4.3 pruning, as used for its Figure 3 TPC-H reconstruction.
const maxLhs = 3

// lineitemBudget is the memory ceiling of lineitem-governed. It sits
// below the ~7.15 MiB the lineitem PLIs would occupy decoded and
// resident, so the compressed PLI store has to spill, reload and
// recompute, yet above the run's non-evictable state, so nothing
// degrades.
const lineitemBudget = 5 << 20

// dataSeed seeds the TPC-H generator. The data is fixed, like the one
// TPC-H instance of the paper's Figure 3: across generator seeds the
// instance's work varies by a third (lineitem's resident PLI footprint
// alone spans 5.5 to 7.2 MiB, so one memory ceiling cannot hold every
// instance in the same regime). The run's --seed instead shuffles the
// row order, which changes the CSV bytes, the dictionary codes and
// HyFD's sampling.
const dataSeed = 1

// shuffle puts rows in an order drawn from rng.
func shuffle(rows [][]string, rng *rand.Rand) {
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
}

// shuffled returns rel with its rows in an order drawn from seed.
func shuffled(rel *normalize.Relation, seed int64) (*normalize.Relation, error) {
	rows := rel.Rows()
	shuffle(rows, rand.New(rand.NewSource(seed)))
	return normalize.NewRelation(rel.Name, rel.Attrs, rows)
}

// workload is one benchmark input with the job the closed loop repeats.
type workload struct {
	name string
	why  string // one line, repeated in BENCHMARK.json
	// orders is how many row orders one run cycles through. HyFD's
	// sampling follows the row order, so on tpch-wide one order's work
	// differs from another's by up to 10%; a run over several orders
	// measures the workload rather than one order of it.
	orders int
	// prepare makes one row order's input from seed and the job that
	// normalizes it; spillDir receives the library's transient spill
	// files. The reference output is computed apart, by reference.
	prepare func(seed int64, spillDir string) (*fixture, error)
}

var workloads = []workload{
	{
		name:    "tpch-wide",
		orders:  5,
		why:     "Figure 3's 52-attribute TPC-H universal relation: HyFD induction and violating-FD scoring dominate; ingest, keys and the PLI store barely run",
		prepare: prepareTPCHWide,
	},
	{
		name:    "lineitem-governed",
		orders:  1,
		why:     "tall 16-attribute lineitem under a 5 MiB ceiling: PLI validation through the spilling PLI store, UCC key selection and ingest dominate",
		prepare: prepareLineitemGoverned,
	},
	{
		name:    "tpch-append",
		orders:  1,
		why:     "1% append to TPC-H via NormalizeDelta: incremental PLI extension and re-validation instead of sampling, with seeded scoring",
		prepare: prepareTPCHAppend,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// inputInfo describes a workload's generated input.
type inputInfo struct {
	Rows     int `json:"rows"`
	Attrs    int `json:"attrs"`
	CSVBytes int `json:"csv_bytes"`
	// JobRows are the rows one job normalizes: the whole input, or the
	// appended rows for a delta job.
	JobRows int `json:"job_rows"`
	// DataSeed seeded the generator; the run's seed shuffled the rows.
	DataSeed int64 `json:"data_seed"`
}

// jobOutput is what one job produced, with the benchmark's own timing
// of the calls it made into the library.
type jobOutput struct {
	ddl       string
	res       *normalize.Result
	delta     *normalize.DeltaStats // nil for a from-scratch job
	ingest    time.Duration         // IngestCSV, timed from outside; 0 without ingest
	normalize time.Duration         // Normalize or NormalizeDelta
	ddlTime   time.Duration         // DDL
}

// fixture is a prepared workload: its input, the job and, once
// computed, the reference output.
type fixture struct {
	input inputInfo
	// root is the generated relation the reference runs on; its rows
	// are what the output tables must join back to.
	root *normalize.Relation
	// wantDDL is the reference schema: a serial, from-scratch Normalize
	// of root.
	wantDDL string
	// job runs one job; tr is nil for an untraced job.
	job func(ctx context.Context, tr *tracer) (jobOutput, error)
	// premise checks what makes the workload exercise its layers. The
	// counters are nil when the job ran without an observer.
	premise func(out jobOutput, counters map[string]int64) error
}

// reference computes the serial from-scratch DDL for rel.
func reference(rel *normalize.Relation) (string, error) {
	res, err := normalize.Normalize(rel, normalize.Options{MaxLhs: maxLhs, Workers: 1})
	if err != nil {
		return "", fmt.Errorf("reference normalization of %s: %w", rel.Name, err)
	}
	if len(res.Degradations) > 0 {
		return "", fmt.Errorf("reference normalization of %s degraded: %s", rel.Name, normalize.FormatDegradations(res.Degradations))
	}
	return normalize.DDL(res.Tables), nil
}

func encodeCSV(rel *normalize.Relation) ([]byte, error) {
	var buf bytes.Buffer
	if err := rel.WriteCSV(&buf); err != nil {
		return nil, fmt.Errorf("encode %s as CSV: %w", rel.Name, err)
	}
	return buf.Bytes(), nil
}

// ingestFixture prepares the job "CSV bytes in, IngestCSV, Normalize,
// DDL out" for rel.
func ingestFixture(rel *normalize.Relation, opts normalize.Options, iopts normalize.IngestOptions) (*fixture, error) {
	data, err := encodeCSV(rel)
	if err != nil {
		return nil, err
	}
	fx := &fixture{
		input: inputInfo{Rows: rel.NumRows(), Attrs: rel.NumAttrs(), CSVBytes: len(data), JobRows: rel.NumRows(), DataSeed: dataSeed},
		root:  rel,
	}
	fx.job = func(ctx context.Context, tr *tracer) (jobOutput, error) {
		var out jobOutput
		ingestOpts := iopts
		ingestOpts.Observer = tr.observer()
		t := time.Now()
		in, _, err := normalize.IngestCSV(ctx, rel.Name, bytes.NewReader(data), ingestOpts)
		out.ingest = tr.call("call.ingest", t)
		if err != nil {
			return out, fmt.Errorf("ingest: %w", err)
		}
		o := opts
		o.Observer = tr.observer()
		t = time.Now()
		out.res, err = normalize.NormalizeContext(ctx, in, o)
		out.normalize = tr.call("call.normalize", t)
		if err != nil {
			return out, fmt.Errorf("normalize: %w", err)
		}
		t = time.Now()
		out.ddl = normalize.DDL(out.res.Tables)
		out.ddlTime = tr.call("call.ddl", t)
		return out, nil
	}
	return fx, nil
}

func prepareTPCHWide(seed int64, _ string) (*fixture, error) {
	ds, err := normalize.GenerateTPCH(0.0002, dataSeed)
	if err != nil {
		return nil, err
	}
	rel, err := shuffled(ds.Denormalized, seed)
	if err != nil {
		return nil, err
	}
	return ingestFixture(rel, normalize.Options{MaxLhs: maxLhs}, normalize.IngestOptions{})
}

func prepareLineitemGoverned(seed int64, spillDir string) (*fixture, error) {
	ds, err := normalize.GenerateTPCH(0.002, dataSeed)
	if err != nil {
		return nil, err
	}
	var rel *normalize.Relation
	for _, r := range ds.Original {
		if r.Name == "lineitem" {
			if rel, err = shuffled(r, seed); err != nil {
				return nil, err
			}
		}
	}
	if rel == nil {
		return nil, fmt.Errorf("TPC-H dataset has no lineitem relation")
	}
	fx, err := ingestFixture(rel,
		normalize.Options{MaxLhs: maxLhs, SpillDir: spillDir, Budget: normalize.Budget{MaxMemoryBytes: lineitemBudget}},
		normalize.IngestOptions{MaxMemoryBytes: lineitemBudget, SpillDir: spillDir})
	if err != nil {
		return nil, err
	}
	fx.premise = func(_ jobOutput, counters map[string]int64) error {
		if counters == nil {
			return nil
		}
		if counters["fd-discovery.pli_spill_events"] == 0 {
			return fmt.Errorf("premise missed: no PLI spill under the %d-byte ceiling (resident PLI footprint %d bytes)",
				lineitemBudget, counters["fd-discovery.pli_resident_bytes"])
		}
		return nil
	}
	return fx, nil
}

func prepareTPCHAppend(seed int64, _ string) (*fixture, error) {
	ds, err := normalize.GenerateTPCH(0.001, dataSeed)
	if err != nil {
		return nil, err
	}
	// The appended rows are the last 1% the generator made, new orders'
	// line items; the seed shuffles the parent's rows and, separately,
	// the appended ones.
	rows := ds.Denormalized.Rows()
	cut := len(rows) - len(rows)/100
	rng := rand.New(rand.NewSource(seed))
	shuffle(rows[:cut], rng)
	shuffle(rows[cut:], rng)
	full, err := normalize.NewRelation(ds.Denormalized.Name, ds.Denormalized.Attrs, rows)
	if err != nil {
		return nil, err
	}
	baseRel, err := normalize.NewRelation(full.Name, full.Attrs, rows[:cut])
	if err != nil {
		return nil, err
	}
	data, err := encodeCSV(baseRel)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	base, _, err := normalize.IngestCSV(ctx, full.Name, bytes.NewReader(data), normalize.IngestOptions{})
	if err != nil {
		return nil, fmt.Errorf("ingest parent input: %w", err)
	}
	opts := normalize.Options{MaxLhs: maxLhs}
	parent, err := normalize.Normalize(base, opts)
	if err != nil {
		return nil, fmt.Errorf("parent normalization: %w", err)
	}
	appended := rows[cut:]
	fx := &fixture{
		input: inputInfo{Rows: len(rows), Attrs: full.NumAttrs(), CSVBytes: len(data), JobRows: len(appended), DataSeed: dataSeed},
		root:  full,
	}
	fx.job = func(ctx context.Context, tr *tracer) (jobOutput, error) {
		var out jobOutput
		o := opts
		o.Observer = tr.observer()
		t := time.Now()
		res, st, err := normalize.NormalizeDelta(ctx, base, appended, parent, normalize.DeltaConfig{Options: o})
		out.normalize = tr.call("call.normalize", t)
		out.res, out.delta = res, st
		if err != nil {
			return out, fmt.Errorf("normalize delta: %w", err)
		}
		t = time.Now()
		out.ddl = normalize.DDL(res.Tables)
		out.ddlTime = tr.call("call.ddl", t)
		return out, nil
	}
	fx.premise = func(out jobOutput, _ map[string]int64) error {
		if out.delta == nil {
			return fmt.Errorf("premise missed: no delta statistics")
		}
		if out.delta.FellBack {
			return fmt.Errorf("premise missed: the delta fell back to full re-discovery (%d demoted)", out.delta.Demoted)
		}
		return nil
	}
	return fx, nil
}
