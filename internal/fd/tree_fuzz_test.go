package fd

import (
	"testing"

	"normalize/internal/bitset"
)

// opReader decodes a fuzz input into tree operations; it yields zeros
// once the input is exhausted.
type opReader struct {
	data []byte
	n    int
}

func (r *opReader) next() int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b)
}

func (r *opReader) attr() int { return r.next() % r.n }

// set decodes either a sparse set of up to four attributes or, for odd
// mode bytes, the full universe minus up to four — the shape of the
// agree sets induction sees on wide relations.
func (r *opReader) set() *bitset.Set {
	mode := r.next()
	k := (mode >> 1) % 5
	s := bitset.New(r.n)
	if mode&1 == 1 {
		s = bitset.Full(r.n)
	}
	for ; k > 0; k-- {
		if mode&1 == 1 {
			s.Remove(r.attr())
		} else {
			s.Add(r.attr())
		}
	}
	return s
}

// treeModel is the reference FD store: one RHS set per LHS key.
type treeModel struct {
	n   int
	lhs map[string]*bitset.Set
	rhs map[string]*bitset.Set
}

func (m *treeModel) at(lhs *bitset.Set) *bitset.Set {
	k := lhs.Key()
	if m.rhs[k] == nil {
		m.lhs[k], m.rhs[k] = lhs.Clone(), bitset.New(m.n)
	}
	return m.rhs[k]
}

func (m *treeModel) addMinimal(lhs *bitset.Set, a int) bool {
	for k, x := range m.lhs {
		if m.rhs[k].Contains(a) && x.IsSubsetOf(lhs) {
			return false
		}
	}
	for k, y := range m.lhs {
		if lhs.IsProperSubsetOf(y) {
			m.rhs[k].Remove(a)
		}
	}
	m.at(lhs).Add(a)
	return true
}

// violatedByScan is the brute-force oracle of ViolatedBy: a scan of
// ToSet() in its (depth-first, ascending) order.
func violatedByScan(tr *Tree, agree *bitset.Set) []FD {
	var out []FD
	for _, f := range tr.ToSet().FDs {
		if f.Lhs.IsSubsetOf(agree) && !f.Rhs.IsSubsetOf(agree) {
			out = append(out, FD{Lhs: f.Lhs, Rhs: f.Rhs.Difference(agree)})
		}
	}
	return out
}

func checkViolatedBy(t *testing.T, tr *Tree, agree *bitset.Set) {
	t.Helper()
	got, want := tr.ViolatedBy(agree), violatedByScan(tr, agree)
	if len(got) != len(want) {
		t.Fatalf("ViolatedBy(%v): %d FDs, scan finds %d", agree, len(got), len(want))
	}
	for i := range got {
		if !got[i].Lhs.Equal(want[i].Lhs) || !got[i].Rhs.Equal(want[i].Rhs) {
			t.Fatalf("ViolatedBy(%v)[%d] = %v, scan has %v", agree, i, &got[i], &want[i])
		}
	}
}

// checkSummaries verifies every node's subtree-RHS summary: sub must
// equal the union of rhs over the node and its descendants. Supersets
// would still be sound for the walks, but every mutation keeps the
// summary exact, so anything else is a maintenance bug.
func checkSummaries(t *testing.T, tr *Tree) {
	t.Helper()
	var union func(n *treeNode, path []int) *bitset.Set
	union = func(n *treeNode, path []int) *bitset.Set {
		u := n.rhs.Clone()
		for e := n.kids.First(); e >= 0; e = n.kids.NextAfter(e) {
			u.UnionWith(union(n.children[e], append(path, e)))
		}
		if !n.sub.Equal(u) {
			t.Fatalf("node %v: sub = %v, subtree rhs union = %v", path, &n.sub, u)
		}
		return u
	}
	union(tr.root, nil)
}

func checkModel(t *testing.T, tr *Tree, m *treeModel) {
	t.Helper()
	stored := make(map[string]bool)
	for _, f := range tr.ToSet().FDs {
		k := f.Lhs.Key()
		stored[k] = true
		if r := m.rhs[k]; r == nil || !r.Equal(f.Rhs) {
			t.Fatalf("tree stores %v, model has rhs %v", f, r)
		}
	}
	for k, r := range m.rhs {
		if !r.IsEmpty() && !stored[k] {
			t.Fatalf("model FD %v -> %v missing from tree", m.lhs[k], r)
		}
	}
}

// FuzzViolatedBy applies a decoded sequence of Add, AddSet, AddMinimal,
// Remove and RemoveRhs to a tree over 1–130 attributes (so word edges
// 63/64 and 127/128 are reachable) and checks every generalization walk
// against brute force: ViolatedBy against a scan of ToSet, ToSet
// against a reference model, and ContainsGeneralization and
// CollectGeneralizations against the model, and Uncovered against
// ContainsGeneralization. After every operation each
// node's subtree-RHS summary must equal the union of the RHS below it.
func FuzzViolatedBy(f *testing.F) {
	f.Add(uint8(4), []byte{0, 0, 1, 5, 6, 1, 2, 8, 2, 5, 3})
	f.Add(uint8(63), []byte{1, 2, 63, 62, 1, 0, 5, 1, 0, 2, 4, 63, 0, 5, 3, 63})
	f.Add(uint8(64), []byte{0, 4, 63, 64, 0, 2, 0, 2, 64, 1, 5, 3, 64, 2, 6, 62, 63, 64, 5, 5, 5, 64, 4, 2, 63, 1, 3})
	f.Add(uint8(127), []byte{0, 6, 126, 127, 128, 0, 1, 4, 127, 64, 63, 2, 5, 5, 2, 127, 2, 128, 5, 1, 0})
	f.Add(uint8(129), []byte{1, 8, 0, 63, 64, 127, 3, 1, 2, 4, 128, 129, 1, 0, 2, 0, 129, 4, 4, 127, 2, 63, 5, 1, 0, 5, 3, 128})
	f.Fuzz(func(t *testing.T, size uint8, ops []byte) {
		n := 1 + int(size)%130
		r := &opReader{data: ops, n: n}
		tr := NewTree(n)
		m := &treeModel{n: n, lhs: make(map[string]*bitset.Set), rhs: make(map[string]*bitset.Set)}
		for steps := 0; len(r.data) > 0 && steps < 64; steps++ {
			switch r.next() % 6 {
			case 0:
				lhs, a := r.set(), r.attr()
				tr.Add(lhs, a)
				m.at(lhs).Add(a)
			case 1:
				lhs, rhs := r.set(), r.set()
				tr.AddSet(lhs, rhs)
				m.at(lhs).UnionWith(rhs)
			case 2:
				lhs, a := r.set(), r.attr()
				if got, want := tr.AddMinimal(lhs, a), m.addMinimal(lhs, a); got != want {
					t.Fatalf("AddMinimal(%v, %d) = %v, model says %v", lhs, a, got, want)
				}
			case 3:
				lhs, a := r.set(), r.attr()
				tr.Remove(lhs, a)
				if rhs := m.rhs[lhs.Key()]; rhs != nil {
					rhs.Remove(a)
				}
			case 4:
				lhs, rhs := r.set(), r.set()
				tr.RemoveRhs(lhs, rhs)
				if mr := m.rhs[lhs.Key()]; mr != nil {
					mr.DifferenceWith(rhs)
				}
			case 5:
				lhs, a := r.set(), r.attr()
				checkViolatedBy(t, tr, lhs)
				var gens int
				for k, x := range m.lhs {
					if m.rhs[k].Contains(a) && x.IsSubsetOf(lhs) {
						gens++
					}
				}
				if got := tr.ContainsGeneralization(lhs, a); got != (gens > 0) {
					t.Fatalf("ContainsGeneralization(%v, %d) = %v, model has %d", lhs, a, got, gens)
				}
				if got := len(tr.CollectGeneralizations(lhs, a)); got != gens {
					t.Fatalf("CollectGeneralizations(%v, %d) found %d, model has %d", lhs, a, got, gens)
				}
				want := r.set()
				got := want.Clone()
				tr.Uncovered(lhs, got)
				want.ForEach(func(b int) bool {
					if got.Contains(b) == tr.ContainsGeneralization(lhs, b) {
						t.Fatalf("Uncovered(%v, %v) = %v disagrees with ContainsGeneralization on %d", lhs, want, got, b)
					}
					return true
				})
				if !got.IsSubsetOf(want) {
					t.Fatalf("Uncovered(%v, %v) = %v adds attributes", lhs, want, got)
				}
			}
			checkSummaries(t, tr)
		}
		checkModel(t, tr, m)
		checkViolatedBy(t, tr, bitset.New(n))
		checkViolatedBy(t, tr, bitset.Full(n))
		for i, s := range tr.ToSet().FDs {
			if i == 8 {
				break
			}
			checkViolatedBy(t, tr, s.Lhs)
		}
	})
}
