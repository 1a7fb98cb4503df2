package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"normalize/internal/bitset"
	"normalize/internal/datagen"
	"normalize/internal/fd"
	"normalize/internal/plicache"
	"normalize/internal/relation"
)

// chainShape replays computeDistinct's most-selective-first chain with
// plain (non-arena, never-skipping) intersections and reports whether
// some step's running partition already refined the next column — the
// step the score index skips — and whether the chain reached a unique
// partition before its last attribute.
func chainShape(sub *plicache.Substrate, attrs *bitset.Set) (skips, unique bool) {
	elems := attrs.Elements()
	sort.Slice(elems, func(i, j int) bool {
		ei, ej := sub.PLI(elems[i]).Error(), sub.PLI(elems[j]).Error()
		if ei != ej {
			return ei < ej
		}
		return elems[i] < elems[j]
	})
	p := sub.PLI(elems[0])
	for _, a := range elems[1:] {
		if p.IsUnique() {
			return skips, true
		}
		if p.Refines(sub.Encoded().Columns[a]) {
			skips = true
		}
		p = p.IntersectInverted(sub.Inverted(a))
	}
	return skips, false
}

// scoreInputs returns the two inputs of the scoring differential: the
// denormalized TPC-H relation and a synthetic one with nulls (empty
// values), a column of singletons, two individually non-unique columns
// that are unique together, and a column functionally determined by
// another. Both are rebuilt row-wise so relation.DistinctCount takes
// its string-hashing path, independent of the dictionary codes the
// score index intersects.
func scoreInputs(t *testing.T) []*relation.Relation {
	t.Helper()
	ds, err := datagen.TPCH(0.0002, 3)
	if err != nil {
		t.Fatal(err)
	}
	tpch := relation.MustNew("tpch", ds.Denormalized.Attrs, ds.Denormalized.Rows())

	rng := rand.New(rand.NewSource(7))
	const n = 240
	attrs := []string{"id", "hi", "lo", "city", "region", "sparse", "flag", "noisy"}
	rows := make([][]string, n)
	for i := range rows {
		city := rng.Intn(12)
		sparse := ""
		if rng.Intn(3) == 0 {
			sparse = fmt.Sprint(rng.Intn(4))
		}
		noisy := ""
		if rng.Intn(5) > 0 {
			noisy = fmt.Sprint(rng.Intn(n))
		}
		rows[i] = []string{
			fmt.Sprint(i),      // id: all singletons
			fmt.Sprint(i / 16), // hi, lo: unique only together
			fmt.Sprint(i % 16),
			fmt.Sprint(city), // city → region
			fmt.Sprint(city % 3),
			sparse,                  // mostly null
			fmt.Sprint(rng.Intn(2)), // flag
			noisy,                   // many singletons, some nulls
		}
	}
	syn := relation.MustNew("synthetic", attrs, rows)
	return []*relation.Relation{tpch, syn}
}

// TestScoreIndexDistinctMatchesRelation is the scoring differential:
// the score index's PLI-chain distinct count (with refinement-skipping)
// must equal relation.DistinctCount on random attribute sets, including
// sets whose chain skips steps and sets whose chain reaches uniqueness.
func TestScoreIndexDistinctMatchesRelation(t *testing.T) {
	for _, rel := range scoreInputs(t) {
		t.Run(rel.Name, func(t *testing.T) {
			sub, err := plicache.Build(context.Background(), rel)
			if err != nil {
				t.Fatal(err)
			}
			ix := newScoreIndex(rel, sub, nil)
			rng := rand.New(rand.NewSource(int64(rel.NumAttrs())))
			var sawSkip, sawUnique int
			for trial := 0; trial < 400; trial++ {
				attrs := bitset.New(rel.NumAttrs())
				for k := 1 + rng.Intn(6); k > 0; k-- {
					attrs.Add(rng.Intn(rel.NumAttrs()))
				}
				want := rel.DistinctCount(attrs)
				if got := ix.distinctCount(attrs); got != want {
					t.Fatalf("distinctCount(%v) = %d, want %d", attrs, got, want)
				}
				// Recompute without the memo: the arena intersector is
				// reused across sets, so this also checks that skipped
				// steps leave its generations consistent.
				if got := ix.computeDistinct(attrs); got != want {
					t.Fatalf("computeDistinct(%v) = %d, want %d", attrs, got, want)
				}
				if attrs.Cardinality() > 1 {
					skips, unique := chainShape(sub, attrs)
					if skips {
						sawSkip++
					}
					if unique {
						sawUnique++
					}
				}
			}
			if sawSkip == 0 || sawUnique == 0 {
				t.Errorf("coverage: %d sets skipped a step, %d reached uniqueness; want both > 0", sawSkip, sawUnique)
			}
		})
	}
}

// TestScoreIndexRefinementSkipShapes pins the two chain shapes on the
// synthetic relation's hand-built columns.
func TestScoreIndexRefinementSkipShapes(t *testing.T) {
	rel := scoreInputs(t)[1]
	sub, err := plicache.Build(context.Background(), rel)
	if err != nil {
		t.Fatal(err)
	}
	ix := newScoreIndex(rel, sub, nil)
	for _, c := range []struct {
		attrs        []string
		skip, unique bool
	}{
		{[]string{"city", "region"}, true, false},
		{[]string{"hi", "lo", "flag"}, false, true},
		{[]string{"city", "region", "sparse", "flag"}, true, false},
	} {
		attrs := bitset.New(rel.NumAttrs())
		for _, a := range c.attrs {
			attrs.Add(rel.AttrIndex(a))
		}
		skips, unique := chainShape(sub, attrs)
		if skips != c.skip || unique != c.unique {
			t.Errorf("%v: chain skips=%v unique=%v, want %v/%v", c.attrs, skips, unique, c.skip, c.unique)
		}
		if got, want := ix.computeDistinct(attrs), rel.DistinctCount(attrs); got != want {
			t.Errorf("%v: computeDistinct = %d, want %d", c.attrs, got, want)
		}
	}
}

// TestSharedRhsMatchesPairwise pins sharedRhs to its pairwise
// definition viol[i].Rhs ∩ ⋃_{j≠i} viol[j].Rhs on random FD lists.
func TestSharedRhsMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(130)
		viol := make([]*fd.FD, rng.Intn(9))
		for i := range viol {
			rhs := bitset.New(n)
			for k := rng.Intn(6); k >= 0; k-- {
				rhs.Add(rng.Intn(n))
			}
			viol[i] = &fd.FD{Lhs: bitset.New(n), Rhs: rhs}
		}
		got := sharedRhs(viol)
		if len(got) != len(viol) {
			t.Fatalf("len = %d, want %d", len(got), len(viol))
		}
		for i, v := range viol {
			want := bitset.New(n)
			for j, o := range viol {
				if i != j {
					want.UnionWithIntersection(v.Rhs, o.Rhs)
				}
			}
			if !got[i].Equal(want) {
				t.Fatalf("trial %d, fd %d: shared = %v, want %v", trial, i, got[i], want)
			}
		}
	}
}
