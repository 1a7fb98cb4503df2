package core

import (
	"sort"
	"strconv"
	"strings"
	"sync"

	"normalize/internal/bitset"
	"normalize/internal/pli"
	"normalize/internal/plicache"
	"normalize/internal/relation"
	"normalize/internal/scoring"
)

// ScoreMemo is the run's exact scoring facts, keyed by attribute sets
// in the universal (root) index space: the number of distinct value
// combinations and the maximum summed value length per set. Both are
// projection-invariant — projecting onto a superset of the attributes
// and removing duplicate rows changes neither the set of distinct
// combinations nor their lengths — so one root-level memo serves every
// table of the decomposition worklist.
//
// The memo is the contract between a full run and the delta plane
// (internal/delta): a run publishes the facts it measured in
// Result.ScoreMemo, and a delta run maintains them incrementally —
// counting only the genuinely new combinations appended rows introduce
// — and seeds them back via Options.ScoreSeed. Because maintained facts
// are exact, both paths score every violating FD identically and choose
// the same splits, which is what pins delta DDL to the from-scratch
// output byte for byte.
type ScoreMemo struct {
	// Distinct maps a canonical attribute-set key (ascending universal
	// indices joined by ","; see ScoreMemoKey) to the exact number of
	// distinct value combinations over those attributes.
	Distinct map[string]int `json:"distinct,omitempty"`
	// MaxLen maps the same keys to the maximum over rows of the summed
	// value lengths of the set's attributes (relation.MaxValueLen).
	MaxLen map[string]int `json:"max_len,omitempty"`
}

// ScoreMemoKey renders an attribute set in universal index space as the
// memo's canonical map key: ascending indices joined by ",".
func ScoreMemoKey(attrs *bitset.Set) string {
	var b strings.Builder
	first := true
	attrs.ForEach(func(a int) bool {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(strconv.Itoa(a))
		return true
	})
	return b.String()
}

// scoreIndex computes and memoizes the scoring facts of one run. It is
// bound to the root table's instance and (when available) its profiling
// substrate: single attributes read their distinct count straight off
// the dictionary cardinality, larger sets intersect single-column PLIs
// most-selective-first (distinct = rows − Size + NumClusters), skipping
// every step whose running partition already refines the next column
// (most steps on wide relations, where a set is largely determined by
// its most selective attribute), and max
// value lengths come from one dictionary-backed row scan per set. A
// seed memo (Options.ScoreSeed) pre-fills the maps so a delta run never
// recomputes what its parent already measured.
type scoreIndex struct {
	mu   sync.Mutex
	data *relation.Relation
	sub  *plicache.Substrate

	distinct map[string]int
	maxLen   map[string]int

	// ipool lends arena-backed intersectors to concurrent computeDistinct
	// calls: the intersection chain is consumed before the intersector is
	// returned, so the arena's transient-result contract holds.
	ipool sync.Pool
}

// newScoreIndex binds an index to the root instance. sub may be nil
// (custom discovery skipped the substrate build); distinct counts then
// fall back to relation.DistinctCount, which is equally exact.
func newScoreIndex(data *relation.Relation, sub *plicache.Substrate, seed *ScoreMemo) *scoreIndex {
	ix := &scoreIndex{
		data:     data,
		sub:      sub,
		distinct: make(map[string]int),
		maxLen:   make(map[string]int),
	}
	if seed != nil {
		for k, v := range seed.Distinct {
			ix.distinct[k] = v
		}
		for k, v := range seed.MaxLen {
			ix.maxLen[k] = v
		}
	}
	return ix
}

// facts assembles the data-dependent FDScore inputs of the violating FD
// lhs → rhs (universal index space) on table instance rows/numAttrs.
func (ix *scoreIndex) facts(lhs, rhs *bitset.Set, rows, numAttrs int) scoring.FDFacts {
	return scoring.FDFacts{
		Rows:        rows,
		NumAttrs:    numAttrs,
		LhsMaxLen:   ix.maxValueLen(lhs),
		LhsDistinct: ix.distinctCount(lhs),
		RhsDistinct: ix.distinctCount(rhs),
	}
}

// distinctCount returns the exact number of distinct value combinations
// of the set (universal space), memoized. The empty set has one (empty)
// combination.
func (ix *scoreIndex) distinctCount(attrs *bitset.Set) int {
	if attrs.IsEmpty() {
		return 1
	}
	key := ScoreMemoKey(attrs)
	ix.mu.Lock()
	if d, ok := ix.distinct[key]; ok {
		ix.mu.Unlock()
		return d
	}
	ix.mu.Unlock()
	d := ix.computeDistinct(attrs)
	ix.mu.Lock()
	ix.distinct[key] = d
	ix.mu.Unlock()
	return d
}

func (ix *scoreIndex) computeDistinct(attrs *bitset.Set) int {
	if ix.sub == nil {
		return ix.data.DistinctCount(attrs)
	}
	elems := attrs.Elements()
	if len(elems) == 1 {
		return ix.sub.Encoded().Cardinality[elems[0]]
	}
	// Intersect most-selective-first so intermediate partitions shrink
	// as fast as possible (the hyfd validation order).
	sort.Slice(elems, func(i, j int) bool {
		ei, ej := ix.sub.PLI(elems[i]).Error(), ix.sub.PLI(elems[j]).Error()
		if ei != ej {
			return ei < ej
		}
		return elems[i] < elems[j]
	})
	rows := ix.sub.NumRows()
	p := ix.sub.PLI(elems[0])
	isx, _ := ix.ipool.Get().(*pli.Intersector)
	if isx == nil {
		isx = pli.NewArenaIntersector()
	}
	defer ix.ipool.Put(isx)
	codes := ix.sub.Encoded().Columns
	for _, a := range elems[1:] {
		if p.IsUnique() {
			return rows
		}
		// When p already refines a's column, p ∩ PLI(a) = p: skip the
		// intersection (and its arena generation) outright.
		if p.Refines(codes[a]) {
			continue
		}
		p = isx.IntersectInverted(p, ix.sub.Inverted(a))
	}
	// Stripped singletons each hold a distinct combination; every
	// surviving cluster holds exactly one more.
	return rows - p.Size() + p.NumClusters()
}

// maxValueLen returns the exact maximum summed value length of the set
// (universal space), memoized. 0 for the empty set.
func (ix *scoreIndex) maxValueLen(attrs *bitset.Set) int {
	if attrs.IsEmpty() {
		return 0
	}
	key := ScoreMemoKey(attrs)
	ix.mu.Lock()
	if l, ok := ix.maxLen[key]; ok {
		ix.mu.Unlock()
		return l
	}
	ix.mu.Unlock()
	l := ix.data.MaxValueLen(attrs)
	ix.mu.Lock()
	ix.maxLen[key] = l
	ix.mu.Unlock()
	return l
}

// memo snapshots the measured facts for Result.ScoreMemo.
func (ix *scoreIndex) memo() *ScoreMemo {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	m := &ScoreMemo{
		Distinct: make(map[string]int, len(ix.distinct)),
		MaxLen:   make(map[string]int, len(ix.maxLen)),
	}
	for k, v := range ix.distinct {
		m.Distinct[k] = v
	}
	for k, v := range ix.maxLen {
		m.MaxLen[k] = v
	}
	return m
}
