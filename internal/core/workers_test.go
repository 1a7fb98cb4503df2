package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"normalize/internal/bitset"
	"normalize/internal/datagen"
	"normalize/internal/fd"
	"normalize/internal/observe"
	"normalize/internal/relation"
)

func workersRandomRelation(r *rand.Rand, attrs, rows, card int) *relation.Relation {
	names := make([]string, attrs)
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
	}
	data := make([][]string, rows)
	for i := range data {
		row := make([]string, attrs)
		for j := range row {
			row[j] = fmt.Sprintf("v%d", r.Intn(card))
		}
		data[i] = row
	}
	return relation.MustNew("rand", names, data)
}

// schemaSignature renders a result order-sensitively — table names,
// attribute sets, keys, foreign keys, and full instances — so two runs
// can be compared byte for byte.
func schemaSignature(res *Result) string {
	var b strings.Builder
	for _, t := range res.Tables {
		fmt.Fprintf(&b, "table %s attrs=%s pk=%v keys=%v\n", t.Name, t.Attrs, t.PrimaryKey, t.Keys)
		for _, fk := range t.ForeignKeys {
			fmt.Fprintf(&b, "  fk %s -> %s\n", fk.Attrs, fk.RefTable)
		}
		for _, row := range t.Data.Rows() {
			fmt.Fprintf(&b, "  %v\n", row)
		}
	}
	return b.String()
}

// TestNormalizeWorkersDifferential is the pipeline determinism
// contract: every worker count must produce the byte-identical
// normalized schema — same tables in the same order, same keys, same
// materialized rows. Run under -race this also exercises the
// validation worker pools and the parallel closure.
func TestNormalizeWorkersDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	inputs := []*relation.Relation{address()}
	for trial := 0; trial < 4; trial++ {
		inputs = append(inputs, workersRandomRelation(r, 5+r.Intn(3), 30+r.Intn(80), 2+r.Intn(3)))
	}
	for i, rel := range inputs {
		serial, err := NormalizeRelationContext(context.Background(),
			relation.MustNew(rel.Name, rel.Attrs, cloneRows(rel.Rows())), Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		base := schemaSignature(serial)
		for _, w := range []int{2, 4} {
			res, err := NormalizeRelationContext(context.Background(),
				relation.MustNew(rel.Name, rel.Attrs, cloneRows(rel.Rows())), Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if got := schemaSignature(res); got != base {
				t.Fatalf("input %d: workers=%d schema differs from workers=1:\n%s\nvs\n%s",
					i, w, got, base)
			}
		}
	}
}

// cloneRows deep-copies rows: buildRoot dedups in place, so runs over
// the same input must not share backing arrays.
func cloneRows(rows [][]string) [][]string {
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = append([]string(nil), r...)
	}
	return out
}

// TestExplicitWorkersHonoured: an explicit Options.Workers above the
// host's CPU count still runs that many validation workers, so the
// worker-count suites exercise real concurrency on small hosts too.
func TestExplicitWorkersHonoured(t *testing.T) {
	want := runtime.NumCPU() + 2
	rec := &observe.Recorder{}
	rel := correlated(rand.New(rand.NewSource(4)), 60)
	if _, err := NormalizeRelation(rel, Options{Workers: want, Observer: rec}); err != nil {
		t.Fatal(err)
	}
	for _, st := range rec.Totals() {
		if st.Stage != observe.Discovery {
			continue
		}
		if got := st.Counters[observe.CounterValidationWorkers]; got != int64(want) {
			t.Errorf("Workers: %d spawned %d validation workers", want, got)
		}
		return
	}
	t.Fatal("no discovery telemetry recorded")
}

// rankingTrace renders every ranked candidate list a run hands its
// decider — FD, exact score bits and shared RHS, in rank order.
func rankingTrace(t *testing.T, rel *relation.Relation, workers int) string {
	t.Helper()
	var b strings.Builder
	dec := FuncDecider{ViolatingFD: func(_ *Table, ranked []RankedFD) (int, *bitset.Set) {
		for _, r := range ranked {
			fmt.Fprintf(&b, "%v %x %v\n", r.FD, math.Float64bits(r.Score), r.SharedRhs)
		}
		b.WriteString("--\n")
		return 0, nil
	}}
	if _, err := NormalizeRelation(relation.MustNew(rel.Name, rel.Attrs, cloneRows(rel.Rows())),
		Options{MaxLhs: 3, Workers: workers, Decider: dec}); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestRankViolatingFDsWorkers: parallel selection scoring must hand the
// decider identical RankedFD slices — same scores, same order, same
// shared RHS — at every worker count, on Figure 3's TPC-H relation.
func TestRankViolatingFDsWorkers(t *testing.T) {
	ds, err := datagen.TPCH(0.0002, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := rankingTrace(t, ds.Denormalized, 1)
	if strings.Count(base, "--\n") < 2 {
		t.Fatalf("TPC-H run ranked too few selections:\n%s", base)
	}
	for _, w := range []int{2, 4} {
		if got := rankingTrace(t, ds.Denormalized, w); got != base {
			t.Fatalf("workers=%d ranking differs from workers=1:\n%s\nvs\n%s", w, got, base)
		}
	}
}

// TestSortRankedFDsOrder pins sortRankedFDs to the comparator that
// renders both FDs on every tie, on candidate lists full of ties.
func TestSortRankedFDsOrder(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		ranked := make([]RankedFD, 1+r.Intn(40))
		for i := range ranked {
			f := &fd.FD{Lhs: bitset.New(12), Rhs: bitset.New(12)}
			f.Lhs.Add(r.Intn(12))
			f.Rhs.Add(r.Intn(12))
			ranked[i] = RankedFD{FD: f, Score: float64(r.Intn(3)) / 2}
		}
		want := append([]RankedFD(nil), ranked...)
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].Score != want[j].Score {
				return want[i].Score > want[j].Score
			}
			return want[i].FD.String() < want[j].FD.String()
		})
		sortRankedFDs(ranked)
		for i := range ranked {
			if ranked[i].FD != want[i].FD {
				t.Fatalf("trial %d: position %d holds %v, reference order has %v", trial, i, ranked[i].FD, want[i].FD)
			}
		}
	}
}
