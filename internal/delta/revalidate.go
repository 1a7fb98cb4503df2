package delta

import (
	"context"
	"sort"
	"sync/atomic"

	"normalize/internal/bitset"
	"normalize/internal/discovery/hyfd"
	"normalize/internal/fd"
	"normalize/internal/guard"
	"normalize/internal/pli"
	"normalize/internal/plicache"
	"normalize/internal/plistore"
	"normalize/internal/relation"
	"normalize/internal/wsteal"
)

// revalidator re-runs HyFD's validate/induct loop with two changes:
// the candidate tree is seeded with the parent cover instead of the
// most general hypothesis (no sampling phase — the parent run already
// did all of that work), and every candidate is checked only against
// the partition clusters an appended row touches. Both are sound
// because every candidate in the tree holds on the base rows: the
// seeds were valid there, and a specialization's LHS is a superset of
// a seed's, so a violating pair must involve an appended row — and any
// two rows agreeing on the LHS share a pivot-attribute cluster, which
// the appended member marks as touched.
type revalidator struct {
	ctx      context.Context
	done     <-chan struct{}
	enc      *relation.Encoded
	n        int
	maxLhs   int
	baseRows int
	tree     *fd.Tree
	handles  []*plistore.Handle
	ix       *pli.Intersector   // arena scratch of the serial path
	pool     *wsteal.Pool       // nil on the serial path
	wixs     []*pli.Intersector // per-worker-slot arena intersectors

	// seeds tracks the parent cover's surviving RHS attributes per LHS
	// for the demotion/reuse accounting and the fallback decision.
	seeds     map[string]*bitset.Set
	seedCount int
	demoted   int64
	checked   atomic.Int64
}

// revalidate checks the parent cover against the appended rows and
// returns the minimal cover of the combined instance, aggregated and
// sorted exactly like hyfd.Discover. fellBack reports that demotions
// exceeded frac of the cover and the caller should re-discover from
// scratch instead of trusting the half-rebuilt tree.
func revalidate(ctx context.Context, sub *plicache.Substrate, cover *fd.Set, baseRows, maxLhs, workers int, frac float64, stats *Stats) (_ *fd.Set, fellBack bool, _ error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	enc := sub.Encoded()
	n := len(enc.Columns)
	if maxLhs <= 0 || maxLhs > n {
		maxLhs = n
	}
	d := &revalidator{
		ctx:      ctx,
		done:     ctx.Done(),
		enc:      enc,
		n:        n,
		maxLhs:   maxLhs,
		baseRows: baseRows,
		tree:     fd.NewTree(n),
		handles:  make([]*plistore.Handle, n),
		ix:       pli.NewArenaIntersector(),
		seeds:    make(map[string]*bitset.Set, cover.Len()),
	}
	// Seeded revalidation rides the same work-stealing scheduler as full
	// discovery: one persistent pool for the whole sweep, range-split
	// levels, verdicts folded from the ordered commit.
	if workers > 1 {
		d.pool = wsteal.New(workers)
		defer d.pool.Close()
		d.wixs = make([]*pli.Intersector, workers)
		for i := range d.wixs {
			d.wixs[i] = pli.NewArenaIntersector()
		}
	}
	for a := 0; a < n; a++ {
		if d.canceled() {
			return nil, false, ctx.Err()
		}
		h, err := sub.Handle(a)
		if err != nil {
			return nil, false, err
		}
		p, err := h.Acquire()
		if err != nil {
			return nil, false, err
		}
		p.Inverted() // prewarm the row→cluster index before parallel use
		h.Release()
		d.handles[a] = h
	}
	for _, f := range cover.FDs {
		d.tree.AddSet(f.Lhs, f.Rhs)
		d.seeds[f.Lhs.Key()] = f.Rhs.Clone()
		d.seedCount += f.Rhs.Cardinality()
	}

	if err := d.sweep(frac, &fellBack); err != nil {
		return nil, false, err
	}
	if fellBack {
		return nil, true, nil
	}
	stats.Checked += d.checked.Load()
	stats.Demoted += d.demoted
	for _, sv := range d.seeds {
		stats.Reused += int64(sv.Cardinality())
	}
	return hyfd.Minimize(d.tree.ToSet()).Aggregate().Sort(), false, nil
}

func (d *revalidator) canceled() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// sweep is hyfd's level-wise validation without the sampling phases:
// violations specialize upward, so the loop terminates at maxLhs or
// the deepest level the re-specialization reaches.
func (d *revalidator) sweep(frac float64, fellBack *bool) error {
	budget := int64(-1)
	if frac >= 0 {
		budget = int64(frac * float64(d.seedCount))
	}
	for level := 0; level <= d.tree.MaxLevel() && level <= d.maxLhs; level++ {
		if d.canceled() {
			return d.ctx.Err()
		}
		var cands []candidate
		d.tree.Level(level, func(lhs, rhs *bitset.Set) {
			cands = append(cands, candidate{lhs: lhs, rhs: rhs})
		})
		if len(cands) == 0 {
			continue
		}
		// Verdicts fold on the coordinating goroutine in candidate
		// order — from the pool's ordered commit on the parallel path —
		// so the tree evolves identically at every worker count while
		// induction overlaps the checks of later candidates.
		process := func(v verdict) error {
			if v.invalid == nil {
				return nil
			}
			for _, p := range v.pairs {
				d.induct(d.agreeSet(p[0], p[1]))
			}
			return nil
		}
		if err := d.check(cands, process); err != nil {
			return err
		}
		if d.canceled() {
			return d.ctx.Err()
		}
		if budget >= 0 && d.demoted > budget {
			*fellBack = true
			return nil
		}
	}
	return nil
}

// candidate and verdict mirror hyfd's level snapshot types.
type candidate struct {
	lhs *bitset.Set
	rhs *bitset.Set
}

type verdict struct {
	cand    candidate
	invalid *bitset.Set
	pairs   [][2]int
}

// check validates one level's candidates and feeds every verdict — in
// candidate order — to process, exactly like hyfd's check: serial for
// small levels, otherwise range-split across the persistent
// work-stealing pool with per-worker-slot arena Intersector scratch,
// guard-wrapped work, and the first error poisoning the batch.
func (d *revalidator) check(cands []candidate, process func(verdict) error) error {
	if d.pool == nil || len(cands) < 8 {
		for _, c := range cands {
			if d.canceled() {
				return nil
			}
			var v verdict
			if err := guard.Run("delta validation", func() error {
				var err error
				v, err = d.checkOne(c, d.ix)
				return err
			}); err != nil {
				return err
			}
			if err := process(v); err != nil {
				return err
			}
		}
		return nil
	}
	out := make([]verdict, len(cands))
	return d.pool.Run(d.ctx, "delta validation worker", len(cands), func(i, slot int) error {
		var err error
		out[i], err = d.checkOne(cands[i], d.wixs[slot])
		return err
	}, func(i int) error {
		return process(out[i])
	})
}

// checkOne validates one candidate against only the delta-touched part
// of its LHS partition. A candidate whose pivot clusters contain no
// appended row is accepted without work — it holds on the base rows by
// construction, and the appended rows created no agreeing pair.
func (d *revalidator) checkOne(c candidate, ix *pli.Intersector) (verdict, error) {
	v := verdict{cand: c}
	if c.lhs.IsEmpty() {
		d.checked.Add(int64(c.rhs.Cardinality()))
		c.rhs.ForEach(func(a int) bool {
			if d.enc.Cardinality[a] != 1 {
				if v.invalid == nil {
					v.invalid = bitset.New(d.n)
				}
				v.invalid.Add(a)
				r1, r2 := d.firstDifferingRows(a)
				v.pairs = append(v.pairs, [2]int{r1, r2})
			}
			return true
		})
		return v, nil
	}
	p, release, err := d.deltaPliFor(c.lhs, ix)
	defer release()
	if err != nil {
		return v, err
	}
	if p == nil {
		return v, nil // untouched by the delta: holds
	}
	// Count per (LHS, RHS attribute) — the same unit as the full
	// pipeline's candidates_checked, so the two are comparable.
	d.checked.Add(int64(c.rhs.Cardinality()))
	c.rhs.ForEach(func(a int) bool {
		if r1, r2 := p.FirstViolation(d.enc.Columns[a]); r1 >= 0 {
			if v.invalid == nil {
				v.invalid = bitset.New(d.n)
			}
			v.invalid.Add(a)
			v.pairs = append(v.pairs, [2]int{r1, r2})
		}
		return true
	})
	return v, nil
}

// deltaPliFor materializes the LHS partition restricted to clusters
// containing at least one appended row, or nil when none survives. Any
// two rows agreeing on the whole LHS agree on the pivot attribute in
// particular, so a violating pair involving an appended row lives
// inside a touched pivot cluster; intersecting the touched clusters
// with the remaining attributes yields the LHS partition's
// delta-relevant fragment. Intersections split clusters, and a
// fragment that lost its appended rows can only witness base-row
// pairs — which hold by construction — so those are dropped after
// every step; a candidate whose partition empties out this way needs
// no validation at all. An appended row whose pivot value is a
// singleton (stripped from the partition) agrees with no other row and
// needs no cluster.
// The returned fragment may alias the pivot partition's cluster slabs,
// so every acquired handle stays pinned until the caller invokes the
// returned release func (always non-nil, even on error).
func (d *revalidator) deltaPliFor(lhs *bitset.Set, ix *pli.Intersector) (*pli.PLI, func(), error) {
	var acquired []*plistore.Handle
	release := func() {
		for _, h := range acquired {
			h.Release()
		}
	}
	acquire := func(a int) (*pli.PLI, error) {
		p, err := d.handles[a].Acquire()
		if err == nil {
			acquired = append(acquired, d.handles[a])
		}
		return p, err
	}
	attrs := d.validationOrder(lhs)
	pivot := attrs[0]
	pp, err := acquire(pivot)
	if err != nil {
		return nil, release, err
	}
	inv := pp.Inverted()
	var ids []int
	for r := d.baseRows; r < d.enc.NumRows; r++ {
		if id := inv[r]; id >= 0 {
			ids = append(ids, id)
		}
	}
	if len(ids) == 0 {
		return nil, release, nil
	}
	sort.Ints(ids)
	all := pp.Clusters()
	touched := make([][]int, 0, len(ids))
	prev := -1
	for _, id := range ids {
		if id != prev {
			touched = append(touched, all[id])
			prev = id
		}
	}
	p := pli.FromClusters(d.enc.NumRows, touched)
	for _, a := range attrs[1:] {
		if p.IsUnique() {
			break
		}
		pa, err := acquire(a)
		if err != nil {
			return nil, release, err
		}
		p = d.dropBaseOnly(ix.IntersectInverted(p, pa.Inverted()))
	}
	if p.IsUnique() {
		return nil, release, nil // no agreeing pair involves an appended row
	}
	return p, release, nil
}

// dropBaseOnly strips clusters made up entirely of base rows. Rows stay
// ascending within a cluster through every intersection, so a cluster
// touches the delta iff its last row is an appended one.
func (d *revalidator) dropBaseOnly(p *pli.PLI) *pli.PLI {
	clusters := p.Clusters()
	keep := make([][]int, 0, len(clusters))
	for _, c := range clusters {
		if c[len(c)-1] >= d.baseRows {
			keep = append(keep, c)
		}
	}
	if len(keep) == len(clusters) {
		return p
	}
	return pli.FromClusters(p.NumRows(), keep)
}

// validationOrder mirrors hyfd's: ascending partition error (most
// selective first), ties by attribute index.
func (d *revalidator) validationOrder(lhs *bitset.Set) []int {
	attrs := lhs.Elements()
	sort.Slice(attrs, func(i, j int) bool {
		ei, ej := d.handles[attrs[i]].Error(), d.handles[attrs[j]].Error()
		if ei != ej {
			return ei < ej
		}
		return attrs[i] < attrs[j]
	})
	return attrs
}

func (d *revalidator) firstDifferingRows(a int) (int, int) {
	col := d.enc.Columns[a]
	for i := 1; i < len(col); i++ {
		if col[i] != col[0] {
			return 0, i
		}
	}
	return 0, 0
}

// agreeSet computes the attributes on which two rows agree.
func (d *revalidator) agreeSet(r1, r2 int) *bitset.Set {
	s := bitset.New(d.n)
	for a := 0; a < d.n; a++ {
		if d.enc.Columns[a][r1] == d.enc.Columns[a][r2] {
			s.Add(a)
		}
	}
	return s
}

// induct mirrors hyfd's: every candidate X → A with X ⊆ agree and
// A ∉ agree is violated by the witnessing pair; it is removed and
// specialized by every attribute outside the agree set, with the
// generalization check keeping the tree free of redundant inserts.
// Removals of parent-cover RHS attributes are charged to the demotion
// budget.
func (d *revalidator) induct(agree *bitset.Set) {
	violated := d.tree.ViolatedBy(agree)
	if len(violated) == 0 {
		return
	}
	outside := bitset.Full(d.n).DifferenceWith(agree)
	for _, v := range violated {
		d.tree.RemoveRhs(v.Lhs, v.Rhs)
		if sv, ok := d.seeds[v.Lhs.Key()]; ok {
			if rm := sv.Intersect(v.Rhs).Cardinality(); rm > 0 {
				d.demoted += int64(rm)
				sv.DifferenceWith(v.Rhs)
			}
		}
		if v.Lhs.Cardinality() >= d.maxLhs {
			continue
		}
		outside.ForEach(func(b int) bool {
			if v.Lhs.Contains(b) {
				return true
			}
			ext := v.Lhs.Clone().Add(b)
			add := v.Rhs.Clone().Remove(b)
			if d.tree.Uncovered(ext, add); !add.IsEmpty() {
				d.tree.AddSet(ext, add)
			}
			return true
		})
	}
}
