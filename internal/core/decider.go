package core

import (
	"sort"

	"normalize/internal/bitset"
	"normalize/internal/fd"
)

// RankedFD is a violating-FD candidate with its foreign-key score, in
// universal attribute space.
type RankedFD struct {
	FD    *fd.FD
	Score float64
	// SharedRhs marks RHS attributes that also occur in other violating
	// FDs' RHSs — the paper presents these to the user, who may remove
	// them to keep the attribute available for a later decomposition.
	SharedRhs *bitset.Set
}

// RankedKey is a primary-key candidate with its score, in universal
// attribute space.
type RankedKey struct {
	Key   *bitset.Set
	Score float64
}

// Decider is the user-in-the-loop hook of the (semi-)automatic
// normalization: it picks the violating FD for each decomposition and
// the primary key for key-less relations. Implementations may consult
// a human or decide programmatically.
type Decider interface {
	// ChooseViolatingFD picks the split FD from the ranked candidates
	// (best first). Return the index of the choice, or -1 to stop
	// normalizing this table (accepting its current form). The chosen
	// FD may be returned with a reduced RHS via the rhs override: a
	// non-nil return of PruneRhs removes those attributes from the
	// split (they stay in R1).
	ChooseViolatingFD(t *Table, ranked []RankedFD) (choice int, pruneRhs *bitset.Set)
	// ChoosePrimaryKey picks the primary key from the ranked candidates
	// (best first). Return -1 to leave the table without a primary key.
	ChoosePrimaryKey(t *Table, ranked []RankedKey) int
}

// AutoDecider always takes the top-ranked candidate — the fully
// automatic mode of the paper.
type AutoDecider struct{}

// ChooseViolatingFD picks the top-ranked violating FD unmodified.
func (AutoDecider) ChooseViolatingFD(*Table, []RankedFD) (int, *bitset.Set) { return 0, nil }

// ChoosePrimaryKey picks the top-ranked key.
func (AutoDecider) ChoosePrimaryKey(*Table, []RankedKey) int { return 0 }

// FuncDecider adapts plain functions to the Decider interface; nil
// fields behave like AutoDecider.
type FuncDecider struct {
	ViolatingFD func(t *Table, ranked []RankedFD) (int, *bitset.Set)
	PrimaryKey  func(t *Table, ranked []RankedKey) int
}

// ChooseViolatingFD delegates to the wrapped function.
func (d FuncDecider) ChooseViolatingFD(t *Table, ranked []RankedFD) (int, *bitset.Set) {
	if d.ViolatingFD == nil {
		return 0, nil
	}
	return d.ViolatingFD(t, ranked)
}

// ChoosePrimaryKey delegates to the wrapped function.
func (d FuncDecider) ChoosePrimaryKey(t *Table, ranked []RankedKey) int {
	if d.PrimaryKey == nil {
		return 0
	}
	return d.PrimaryKey(t, ranked)
}

// sortRankedFDs orders candidates by descending score with a
// deterministic tie-break on the FD's rendering, computed once per
// candidate rather than once per comparison.
func sortRankedFDs(ranked []RankedFD) {
	type keyed struct {
		RankedFD
		key string
	}
	ks := make([]keyed, len(ranked))
	for i, r := range ranked {
		ks[i] = keyed{r, r.FD.String()}
	}
	sort.SliceStable(ks, func(i, j int) bool {
		if ks[i].Score != ks[j].Score {
			return ks[i].Score > ks[j].Score
		}
		return ks[i].key < ks[j].key
	})
	for i := range ks {
		ranked[i] = ks[i].RankedFD
	}
}

// sortRankedKeys orders candidates by descending score with a
// deterministic tie-break.
func sortRankedKeys(ranked []RankedKey) {
	sort.SliceStable(ranked, func(i, j int) bool {
		if ranked[i].Score != ranked[j].Score {
			return ranked[i].Score > ranked[j].Score
		}
		return ranked[i].Key.String() < ranked[j].Key.String()
	})
}
