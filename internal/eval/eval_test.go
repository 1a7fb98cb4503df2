package eval

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"normalize/internal/datagen"
	"normalize/internal/fd"
)

func tinySpec() Spec {
	return Spec{
		Name:   "tiny-tpch",
		Gen:    func() (*datagen.Dataset, error) { return datagen.TPCH(0.00005, 1) },
		MaxLhs: 2,
	}
}

func TestRunTable3RowShape(t *testing.T) {
	row, err := RunTable3Row(context.Background(), tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if row.Attrs != 52 {
		t.Errorf("attrs = %d", row.Attrs)
	}
	if row.FDs <= 0 || row.FDKeys < 0 {
		t.Errorf("FDs=%d FDKeys=%d", row.FDs, row.FDKeys)
	}
	if row.AvgRhsAfter < row.AvgRhsBefore {
		t.Errorf("closure shrank the average RHS: %f -> %f", row.AvgRhsBefore, row.AvgRhsAfter)
	}
	if row.Discovery <= 0 || row.ClosureOpt <= 0 {
		t.Error("timings missing")
	}
	var buf bytes.Buffer
	PrintTable3(&buf, []Table3Row{row})
	if !strings.Contains(buf.String(), "tiny-tpch") {
		t.Error("PrintTable3 lost the dataset name")
	}
}

func TestRunNaiveComparisonOrdering(t *testing.T) {
	// Single-shot wall times of a few milliseconds jitter by several
	// times on a loaded host, so time each algorithm as the minimum over
	// repeated runs — the run least disturbed by scheduling noise.
	row, err := RunNaiveComparison(context.Background(), tinySpec(), 1500)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 1; rep < 5; rep++ {
		r, err := RunNaiveComparison(context.Background(), tinySpec(), 1500)
		if err != nil {
			t.Fatal(err)
		}
		row.Naive = min(row.Naive, r.Naive)
		row.Improved = min(row.Improved, r.Improved)
		row.Optimized = min(row.Optimized, r.Optimized)
	}
	// The cubic baseline must not beat the optimized algorithm on a
	// non-trivial input (the paper's headline result). Timing on tiny
	// inputs jitters, so allow a generous margin; the full-size
	// comparison lives in cmd/evaluate.
	if row.Naive*3 < row.Optimized {
		t.Errorf("naive %v dramatically faster than optimized %v", row.Naive, row.Optimized)
	}
	if row.Naive <= 0 || row.Improved <= 0 || row.Optimized <= 0 {
		t.Error("missing timings")
	}
	var buf bytes.Buffer
	PrintNaive(&buf, []NaiveRow{row})
	if !strings.Contains(buf.String(), "tiny-tpch") {
		t.Error("PrintNaive lost the dataset name")
	}
}

func TestSampleFDs(t *testing.T) {
	s := fd.NewSet(4)
	s.AddAttrs([]int{0}, []int{1})
	s.AddAttrs([]int{1}, []int{2})
	s.AddAttrs([]int{2}, []int{3})
	sample := SampleFDs(s, 2, 1)
	if sample.Len() != 2 {
		t.Errorf("sample size = %d", sample.Len())
	}
	// Oversampling returns everything.
	if SampleFDs(s, 10, 1).Len() != 3 {
		t.Error("oversampling should cap at the set size")
	}
	// Samples are clones: mutating them must not touch the original.
	sample.FDs[0].Rhs.Add(3)
	count := 0
	for _, f := range s.FDs {
		count += f.Rhs.Cardinality()
	}
	if count != 3 {
		t.Error("SampleFDs did not clone")
	}
}

func TestRunReconstructionTiny(t *testing.T) {
	ds, err := datagen.TPCH(0.0001, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := RunReconstruction(context.Background(), ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Mapping) != 8 {
		t.Fatalf("mapping covers %d original relations, want 8", len(rec.Mapping))
	}
	// The paper's headline effectiveness result: the snowflake
	// dimensions are substantially recovered. At this deliberately tiny
	// scale (a dozen customers) single attributes may drift between
	// neighbouring relations, so the threshold is loose here; the
	// full-scale Figure 3 run in cmd/evaluate shows perfect matches.
	byName := map[string]TableMatch{}
	for _, m := range rec.Mapping {
		byName[m.Original] = m
	}
	for _, name := range []string{"customer", "supplier", "nation", "partsupp"} {
		if byName[name].Jaccard < 0.7 {
			t.Errorf("%s reconstructed with Jaccard %.2f, want ≥ 0.7 (matched %s)",
				name, byName[name].Jaccard, byName[name].Best)
		}
	}
	var buf bytes.Buffer
	PrintReconstruction(&buf, rec)
	if !strings.Contains(buf.String(), "Perfectly recovered") {
		t.Error("PrintReconstruction output incomplete")
	}
}
