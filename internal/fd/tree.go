package fd

import "normalize/internal/bitset"

// Tree is a prefix tree over FD left-hand sides with right-hand-side
// attribute bitmaps at every node: the node reached by the (ascending)
// attribute path X carries the set of attributes A for which X → A is
// stored. The tree supports the generalization and specialization
// queries that drive HyFD-style induction: "is there a stored FD whose
// Lhs is a subset of this set?", "collect/remove all such FDs", and
// minimal insertion.
type Tree struct {
	numAttrs int
	root     *treeNode
}

type treeNode struct {
	rhs bitset.Set // FDs ending at this node
	// kids marks the attributes with a non-nil child, so generalization
	// walks visit lhs ∧ kids instead of probing children per lhs bit.
	// Nodes are never pruned, so a bit once set stays set.
	kids bitset.Set
	// sub is the union of rhs over this node and all its descendants
	// (HyFD's rhsAttributes): a walk looking for an RHS attribute, or
	// for an RHS outside an agree set, skips every subtree whose sub
	// rules it out. Every mutation keeps sub exact.
	sub bitset.Set
	// children is indexed by attribute; nil until the first child.
	children []*treeNode
}

// NewTree returns an empty FD tree over numAttrs attributes.
func NewTree(numAttrs int) *Tree {
	return &Tree{numAttrs: numAttrs, root: newTreeNode(numAttrs)}
}

func newTreeNode(numAttrs int) *treeNode {
	n := &treeNode{}
	bitset.Carve(numAttrs, &n.rhs, &n.kids, &n.sub)
	return n
}

// NumAttrs returns the universe size.
func (t *Tree) NumAttrs() int { return t.numAttrs }

// child returns n's child along attribute e, creating it when missing.
func (t *Tree) child(n *treeNode, e int) *treeNode {
	if n.children == nil {
		n.children = make([]*treeNode, t.numAttrs)
	}
	c := n.children[e]
	if c == nil {
		c = newTreeNode(t.numAttrs)
		n.children[e] = c
		n.kids.Add(e)
	}
	return c
}

// path appends the nodes of the ascending path lhs, root first, to buf
// and returns it, or nil when the path does not exist.
func (t *Tree) path(lhs *bitset.Set, buf []*treeNode) []*treeNode {
	n := t.root
	buf = append(buf, n)
	for e := lhs.First(); e >= 0; e = lhs.NextAfter(e) {
		if !n.kids.Contains(e) {
			return nil
		}
		n = n.children[e]
		buf = append(buf, n)
	}
	return buf
}

// Add stores the FD lhs → rhsAttr, without minimality checks.
func (t *Tree) Add(lhs *bitset.Set, rhsAttr int) {
	n := t.root
	n.sub.Add(rhsAttr)
	for e := lhs.First(); e >= 0; e = lhs.NextAfter(e) {
		n = t.child(n, e)
		n.sub.Add(rhsAttr)
	}
	n.rhs.Add(rhsAttr)
}

// AddSet stores lhs → a for every a in rhs.
func (t *Tree) AddSet(lhs, rhs *bitset.Set) {
	n := t.root
	n.sub.UnionWith(rhs)
	for e := lhs.First(); e >= 0; e = lhs.NextAfter(e) {
		n = t.child(n, e)
		n.sub.UnionWith(rhs)
	}
	n.rhs.UnionWith(rhs)
}

// Contains reports whether exactly lhs → rhsAttr is stored.
func (t *Tree) Contains(lhs *bitset.Set, rhsAttr int) bool {
	var buf [16]*treeNode
	path := t.path(lhs, buf[:0])
	return path != nil && path[len(path)-1].rhs.Contains(rhsAttr)
}

// ContainsGeneralization reports whether some stored FD X → rhsAttr has
// X ⊆ lhs (including X = lhs).
func (t *Tree) ContainsGeneralization(lhs *bitset.Set, rhsAttr int) bool {
	return t.root.sub.Contains(rhsAttr) && containsGen(t.root, lhs, -1, rhsAttr)
}

// containsGen searches below n, whose summary carries rhsAttr; a child
// whose summary lacks it is not entered.
func containsGen(n *treeNode, lhs *bitset.Set, after, rhsAttr int) bool {
	if n.rhs.Contains(rhsAttr) {
		return true
	}
	for e := n.kids.NextAfterIn(lhs, after); e >= 0; e = n.kids.NextAfterIn(lhs, e) {
		if c := n.children[e]; c.sub.Contains(rhsAttr) && containsGen(c, lhs, e, rhsAttr) {
			return true
		}
	}
	return false
}

// Uncovered removes from want every attribute a for which some stored
// FD X → a has X ⊆ lhs, leaving the attributes a for which lhs → a has
// no generalization. It answers ContainsGeneralization for all of want
// in one walk, which enters only the subtrees whose summary still meets
// want.
func (t *Tree) Uncovered(lhs, want *bitset.Set) {
	if t.root.sub.Intersects(want) {
		uncovered(t.root, lhs, -1, want)
	}
}

func uncovered(n *treeNode, lhs *bitset.Set, after int, want *bitset.Set) {
	want.DifferenceWith(&n.rhs)
	for e := n.kids.NextAfterIn(lhs, after); e >= 0; e = n.kids.NextAfterIn(lhs, e) {
		if c := n.children[e]; c.sub.Intersects(want) {
			uncovered(c, lhs, e, want)
		}
	}
}

// CollectGeneralizations returns the Lhs of every stored FD X → rhsAttr
// with X ⊆ lhs.
func (t *Tree) CollectGeneralizations(lhs *bitset.Set, rhsAttr int) []*bitset.Set {
	var out []*bitset.Set
	collectGen(t.root, lhs, -1, rhsAttr, make([]int, 0, 16), &out, t.numAttrs)
	return out
}

func collectGen(n *treeNode, lhs *bitset.Set, after, rhsAttr int, prefix []int, out *[]*bitset.Set, numAttrs int) {
	if !n.sub.Contains(rhsAttr) {
		return
	}
	if n.rhs.Contains(rhsAttr) {
		*out = append(*out, bitset.Of(numAttrs, prefix...))
	}
	for e := n.kids.NextAfterIn(lhs, after); e >= 0; e = n.kids.NextAfterIn(lhs, e) {
		collectGen(n.children[e], lhs, e, rhsAttr, append(prefix, e), out, numAttrs)
	}
}

// ViolatedBy returns every stored FD that a record pair with the given
// agree set refutes: all (lhs, badRhs) with lhs ⊆ agree and
// badRhs = rhs \ agree non-empty. One tree walk serves all RHS
// attributes at once, which is what makes HyFD-style induction cheap:
// it descends only into children on agree ∧ kids, stops at every
// subtree whose RHS summary lies inside agree (no FD below it can be
// refuted), and allocates nothing at a node whose rhs ⊆ agree.
func (t *Tree) ViolatedBy(agree *bitset.Set) []FD {
	var out []FD
	if !t.root.sub.IsSubsetOf(agree) {
		t.violatedBy(t.root, agree, -1, make([]int, 0, 16), &out)
	}
	return out
}

// violatedBy walks below n, whose summary reaches outside agree; a
// child whose summary lies inside agree is not entered.
func (t *Tree) violatedBy(n *treeNode, agree *bitset.Set, after int, prefix []int, out *[]FD) {
	if !n.rhs.IsSubsetOf(agree) {
		*out = append(*out, FD{Lhs: bitset.Of(t.numAttrs, prefix...), Rhs: n.rhs.Difference(agree)})
	}
	for e := n.kids.NextAfterIn(agree, after); e >= 0; e = n.kids.NextAfterIn(agree, e) {
		if c := n.children[e]; !c.sub.IsSubsetOf(agree) {
			t.violatedBy(c, agree, e, append(prefix, e), out)
		}
	}
}

// RemoveRhs deletes lhs → a for every a in rhs with a single path walk.
func (t *Tree) RemoveRhs(lhs *bitset.Set, rhs *bitset.Set) {
	var buf [16]*treeNode
	if path := t.path(lhs, buf[:0]); path != nil {
		path[len(path)-1].rhs.DifferenceWith(rhs)
		resumPath(path)
	}
}

// Remove deletes the FD lhs → rhsAttr if stored. Empty nodes are not
// physically pruned; the tree stays correct regardless.
func (t *Tree) Remove(lhs *bitset.Set, rhsAttr int) {
	var buf [16]*treeNode
	if path := t.path(lhs, buf[:0]); path != nil {
		path[len(path)-1].rhs.Remove(rhsAttr)
		resumPath(path)
	}
}

// resumPath restores the summaries along path (root first) after an RHS
// removal at its last node, bottom-up as rhs ∪ ⋃ child.sub. A node
// whose summary comes out unchanged leaves its ancestors' unchanged
// too, so the walk stops there.
func resumPath(path []*treeNode) {
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if !n.resum() {
			return
		}
	}
}

// resum recomputes n.sub from n.rhs and the children's summaries and
// reports whether it changed. Summaries only ever shrink here, so
// comparing cardinalities detects a change.
func (n *treeNode) resum() bool {
	before := n.sub.Cardinality()
	n.sub.CopyFrom(&n.rhs)
	for e := n.kids.First(); e >= 0; e = n.kids.NextAfter(e) {
		n.sub.UnionWith(&n.children[e].sub)
	}
	return n.sub.Cardinality() != before
}

// AddMinimal inserts lhs → rhsAttr only if no generalization is stored,
// and removes all stored specializations (FDs Y → rhsAttr with
// lhs ⊂ Y). It reports whether the FD was inserted. Maintaining this
// invariant on every insert keeps the tree a minimal cover.
func (t *Tree) AddMinimal(lhs *bitset.Set, rhsAttr int) bool {
	if t.ContainsGeneralization(lhs, rhsAttr) {
		return false
	}
	t.removeSpecializations(t.root, -1, lhs, lhs.First(), rhsAttr)
	t.Add(lhs, rhsAttr)
	return true
}

// removeSpecializations clears rhsAttr from every node whose ascending
// attribute path is a superset of lhs. nextLhs is the smallest lhs
// attribute not yet seen on the path (-1 when all are matched). Callers
// guarantee lhs → rhsAttr itself is absent (no generalization exists),
// so only proper specializations are removed. Subtrees whose summary
// lacks rhsAttr hold nothing to remove; on the way back up every
// visited node drops rhsAttr from its summary once neither its rhs nor
// any child's summary carries it.
func (t *Tree) removeSpecializations(n *treeNode, after int, lhs *bitset.Set, nextLhs, rhsAttr int) {
	if !n.sub.Contains(rhsAttr) {
		return
	}
	if nextLhs < 0 {
		n.rhs.Remove(rhsAttr)
	}
	for e := n.kids.NextAfter(after); e >= 0; e = n.kids.NextAfter(e) {
		// Paths ascend, so once e passes the next required lhs
		// attribute, no deeper path can contain lhs anymore.
		if nextLhs >= 0 && e > nextLhs {
			break
		}
		nl := nextLhs
		if e == nextLhs {
			nl = lhs.NextAfter(e)
		}
		t.removeSpecializations(n.children[e], e, lhs, nl, rhsAttr)
	}
	if n.rhs.Contains(rhsAttr) {
		return
	}
	for e := n.kids.First(); e >= 0; e = n.kids.NextAfter(e) {
		if n.children[e].sub.Contains(rhsAttr) {
			return
		}
	}
	n.sub.Remove(rhsAttr)
}

// ToSet extracts all stored FDs as an aggregated Set.
func (t *Tree) ToSet() *Set {
	s := NewSet(t.numAttrs)
	t.walk(t.root, make([]int, 0, 16), func(path []int, rhs *bitset.Set) {
		lhs := bitset.Of(t.numAttrs, path...)
		s.FDs = append(s.FDs, &FD{Lhs: lhs, Rhs: rhs.Clone()})
	})
	return s
}

// Count returns the number of stored single-RHS FDs.
func (t *Tree) Count() int {
	n := 0
	t.walk(t.root, make([]int, 0, 16), func(_ []int, rhs *bitset.Set) {
		n += rhs.Cardinality()
	})
	return n
}

// Level calls f with every stored FD whose Lhs has exactly size
// attributes. Used by the level-wise HyFD validation.
func (t *Tree) Level(size int, f func(lhs *bitset.Set, rhs *bitset.Set)) {
	t.walk(t.root, make([]int, 0, 16), func(path []int, rhs *bitset.Set) {
		if len(path) == size {
			f(bitset.Of(t.numAttrs, path...), rhs.Clone())
		}
	})
}

// MaxLevel returns the largest Lhs size of any stored FD, or -1 when
// the tree is empty.
func (t *Tree) MaxLevel() int {
	max := -1
	t.walk(t.root, make([]int, 0, 16), func(path []int, _ *bitset.Set) {
		if len(path) > max {
			max = len(path)
		}
	})
	return max
}

func (t *Tree) walk(n *treeNode, path []int, f func(path []int, rhs *bitset.Set)) {
	if n.sub.IsEmpty() {
		return
	}
	if !n.rhs.IsEmpty() {
		f(path, &n.rhs)
	}
	for e := n.kids.First(); e >= 0; e = n.kids.NextAfter(e) {
		t.walk(n.children[e], append(path, e), f)
	}
}
