// Package bitset provides compact, fixed-width bit sets over small
// integer universes. Throughout this repository a Set represents a set
// of attribute indices of a relation, which is the universal currency
// of functional-dependency algorithms: FD left-hand sides, right-hand
// sides, keys, and closures are all attribute sets.
//
// Sets are mutable; operations that modify a set return the receiver to
// allow chaining. Use Clone before mutating shared sets.
package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Set is a bit set over the universe [0, Size()). The zero value is an
// empty set over an empty universe; use New to create a set with a
// fixed universe size.
type Set struct {
	words []uint64
	n     int // universe size in bits
}

// New returns an empty set over the universe [0, n).
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative universe size")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Of returns a set over [0, n) containing exactly the given elements.
func Of(n int, elems ...int) *Set {
	s := New(n)
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// Full returns the set containing every element of [0, n).
func Full(n int) *Set {
	s := New(n)
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
	return s
}

// trim clears the bits beyond the universe size in the last word.
func (s *Set) trim() {
	if rem := s.n % wordBits; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (uint64(1) << uint(rem)) - 1
	}
}

// Size returns the universe size n, i.e. the exclusive upper bound for
// elements.
func (s *Set) Size() int { return s.n }

// Add inserts e and returns the receiver.
func (s *Set) Add(e int) *Set {
	s.words[e/wordBits] |= 1 << uint(e%wordBits)
	return s
}

// Remove deletes e and returns the receiver.
func (s *Set) Remove(e int) *Set {
	s.words[e/wordBits] &^= 1 << uint(e%wordBits)
	return s
}

// Contains reports whether e is in the set.
func (s *Set) Contains(e int) bool {
	if e < 0 || e >= s.n {
		return false
	}
	return s.words[e/wordBits]&(1<<uint(e%wordBits)) != 0
}

// Cardinality returns the number of elements in the set.
func (s *Set) Cardinality() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// IsEmpty reports whether the set has no elements.
func (s *Set) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// UnionWith adds all elements of o to s and returns s.
func (s *Set) UnionWith(o *Set) *Set {
	for i, w := range o.words {
		s.words[i] |= w
	}
	return s
}

// IntersectWith removes from s all elements not in o and returns s.
func (s *Set) IntersectWith(o *Set) *Set {
	for i := range s.words {
		s.words[i] &= o.words[i]
	}
	return s
}

// DifferenceWith removes all elements of o from s and returns s.
func (s *Set) DifferenceWith(o *Set) *Set {
	for i := range s.words {
		s.words[i] &^= o.words[i]
	}
	return s
}

// UnionWithIntersection adds every element of x ∩ y to s and returns s.
// It is the allocation-free form of s.UnionWith(x.Intersect(y)), which
// pairwise-overlap loops call quadratically often.
func (s *Set) UnionWithIntersection(x, y *Set) *Set {
	for i := range s.words {
		s.words[i] |= x.words[i] & y.words[i]
	}
	return s
}

// CopyFrom overwrites s with the contents of o (same universe size) and
// returns s. It is the allocation-free form of o.Clone() for callers
// that reuse a scratch set.
func (s *Set) CopyFrom(o *Set) *Set {
	copy(s.words, o.words)
	return s
}

// Union returns a new set s ∪ o.
func (s *Set) Union(o *Set) *Set { return s.Clone().UnionWith(o) }

// Intersect returns a new set s ∩ o.
func (s *Set) Intersect(o *Set) *Set { return s.Clone().IntersectWith(o) }

// Difference returns a new set s \ o.
func (s *Set) Difference(o *Set) *Set { return s.Clone().DifferenceWith(o) }

// IsSubsetOf reports whether every element of s is in o.
func (s *Set) IsSubsetOf(o *Set) bool {
	for i, w := range s.words {
		if w&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

// IsProperSubsetOf reports whether s ⊂ o.
func (s *Set) IsProperSubsetOf(o *Set) bool {
	return s.IsSubsetOf(o) && !s.Equal(o)
}

// Intersects reports whether s and o share at least one element.
func (s *Set) Intersects(o *Set) bool {
	for i, w := range s.words {
		if w&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether s and o contain exactly the same elements.
func (s *Set) Equal(o *Set) bool {
	if o == nil || s.n != o.n {
		return false
	}
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// First returns the smallest element, or -1 if the set is empty.
func (s *Set) First() int {
	for i, w := range s.words {
		if w != 0 {
			return i*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// NextAfter returns the smallest element strictly greater than e, or -1
// if no such element exists. NextAfter(-1) returns the first element.
func (s *Set) NextAfter(e int) int {
	e++
	if e < 0 {
		e = 0
	}
	if e >= s.n {
		return -1
	}
	i := e / wordBits
	w := s.words[i] >> uint(e%wordBits)
	if w != 0 {
		return e + bits.TrailingZeros64(w)
	}
	for i++; i < len(s.words); i++ {
		if s.words[i] != 0 {
			return i*wordBits + bits.TrailingZeros64(s.words[i])
		}
	}
	return -1
}

// NextAfterIn returns the smallest element of s ∩ o strictly greater
// than e, or -1 if no such element exists; NextAfterIn(o, -1) returns
// the first common element. It walks the intersection one 64-bit word
// at a time without materializing it, so iterating s ∩ o costs one
// call per common element plus one per all-zero word, however many
// elements s and o hold on their own. o must share s's universe.
func (s *Set) NextAfterIn(o *Set, e int) int {
	e++
	if e < 0 {
		e = 0
	}
	if e >= s.n {
		return -1
	}
	i := e / wordBits
	if w := (s.words[i] & o.words[i]) >> uint(e%wordBits); w != 0 {
		return e + bits.TrailingZeros64(w)
	}
	for i++; i < len(s.words); i++ {
		if w := s.words[i] & o.words[i]; w != 0 {
			return i*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Elements returns the elements in ascending order.
func (s *Set) Elements() []int {
	out := make([]int, 0, s.Cardinality())
	for e := s.First(); e >= 0; e = s.NextAfter(e) {
		out = append(out, e)
	}
	return out
}

// ForEach calls f on each element in ascending order; iteration stops
// early if f returns false.
func (s *Set) ForEach(f func(e int) bool) {
	for e := s.First(); e >= 0; e = s.NextAfter(e) {
		if !f(e) {
			return
		}
	}
}

// Key returns a compact string usable as a map key. Two sets over the
// same universe have equal keys iff they are equal.
func (s *Set) Key() string {
	var b strings.Builder
	b.Grow(len(s.words) * 8)
	for _, w := range s.words {
		for i := 0; i < 8; i++ {
			b.WriteByte(byte(w >> uint(8*i)))
		}
	}
	return b.String()
}

// String renders the set like "{0, 3, 7}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(e int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(strconv.Itoa(e))
		return true
	})
	b.WriteByte('}')
	return b.String()
}
