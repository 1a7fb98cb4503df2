package hyfd

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"normalize/internal/bitset"
	"normalize/internal/fd"
	"normalize/internal/plicache"
	"normalize/internal/relation"
	"normalize/internal/settrie"
	"normalize/internal/wsteal"
)

// oracleSample is the reference sweep of sampler.run: one fresh bitset
// per compared pair, deduplicated through bitset.Key strings, emitted
// in cluster order, then pair order.
func oracleSample(s *sampler, rounds int) []*bitset.Set {
	seen := make(map[string]bool)
	var out []*bitset.Set
	for r := 0; r < rounds && s.hasMore(); r++ {
		w := s.window
		s.window++
		for _, cluster := range s.clusters {
			for i := 0; i+w < len(cluster); i++ {
				a := bitset.New(s.n)
				for c := 0; c < s.n; c++ {
					if s.enc.Columns[c][cluster[i]] == s.enc.Columns[c][cluster[i+w]] {
						a.Add(c)
					}
				}
				if k := a.Key(); !seen[k] {
					seen[k] = true
					out = append(out, a)
				}
			}
		}
	}
	return out
}

// nullyRelation draws a relation whose values come from three non-null
// values plus null (about a quarter of all cells), so agree sets are
// large and repeat often — within clusters and across them.
func nullyRelation(r *rand.Rand, attrs, rows int) *relation.Relation {
	names := make([]string, attrs)
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
	}
	data := make([][]string, rows)
	for i := range data {
		row := make([]string, attrs)
		for j := range row {
			if v := r.Intn(4); v > 0 {
				row[j] = fmt.Sprintf("v%d", v)
			}
		}
		data[i] = row
	}
	return relation.MustNew("nully", names, data)
}

func newTestSampler(t *testing.T, rel *relation.Relation) *sampler {
	t.Helper()
	sub, err := plicache.Build(context.Background(), rel)
	if err != nil {
		t.Fatal(err)
	}
	handles, err := sub.Handles()
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSampler(sub.Encoded(), handles)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSamplerMatchesOracle pins the emitted agree-set sequence of the
// word-buffer sampler with its two-level dedup to the per-pair bitset
// sweep, at one, two and four workers, on universes of one word (n ≤ 64)
// and of two words (70 attributes).
func TestSamplerMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	rels := []*relation.Relation{
		correlatedRelation(r, 300),
		randomRelation(r, 12, 200, 3),
		nullyRelation(r, 70, 160),
	}
	const rounds = 6
	for _, rel := range rels {
		want := oracleSample(newTestSampler(t, rel), rounds)
		if len(want) == 0 {
			t.Fatalf("%s: oracle emitted nothing", rel.Name)
		}
		for _, workers := range []int{1, 2, 4} {
			var pool *wsteal.Pool
			if workers > 1 {
				pool = wsteal.New(workers)
			}
			var got []*bitset.Set
			err := newTestSampler(t, rel).run(context.Background(), rounds, pool, func(a *bitset.Set) error {
				got = append(got, a)
				return nil
			})
			if pool != nil {
				pool.Close()
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s (%d attrs), workers=%d: %d agree sets, oracle %d",
					rel.Name, rel.NumAttrs(), workers, len(got), len(want))
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("%s (%d attrs), workers=%d: agree set %d = %v, oracle %v",
						rel.Name, rel.NumAttrs(), workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestWordSetGrowth checks the agree-set table past several index
// doublings: membership is exact and members keep insertion order.
func TestWordSetGrowth(t *testing.T) {
	ws := newWordSet(2)
	for i := 0; i < 1000; i++ {
		if !ws.add([]uint64{uint64(i * 7), uint64(i % 3)}) {
			t.Fatalf("member %d reported as present", i)
		}
	}
	for i := 0; i < 1000; i++ {
		if ws.add([]uint64{uint64(i * 7), uint64(i % 3)}) {
			t.Fatalf("member %d reported as new twice", i)
		}
		if got := ws.keys[2*i]; got != uint64(i*7) {
			t.Fatalf("member %d stored out of order: %d", i, got)
		}
	}
	ws.reset()
	if ws.len() != 0 || !ws.add([]uint64{0, 0}) {
		t.Fatal("reset did not empty the set")
	}
}

// oracleMinimize is the settrie version of Minimize: one trie of kept
// left-hand sides per RHS attribute.
func oracleMinimize(s *fd.Set) *fd.Set {
	s.Sort()
	tries := make([]settrie.Trie, s.NumAttrs)
	out := fd.NewSet(s.NumAttrs)
	for _, f := range s.FDs {
		rhs := bitset.New(s.NumAttrs)
		f.Rhs.ForEach(func(a int) bool {
			if !tries[a].ContainsSubsetOf(f.Lhs) {
				tries[a].Insert(f.Lhs)
				rhs.Add(a)
			}
			return true
		})
		if !rhs.IsEmpty() {
			out.FDs = append(out.FDs, &fd.FD{Lhs: f.Lhs, Rhs: rhs})
		}
	}
	return out
}

func renderFDs(s *fd.Set) string {
	var b strings.Builder
	for _, f := range s.FDs {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestMinimizeMatchesSettrie compares Minimize on fd.Tree against the
// per-RHS settrie oracle on random FD sets with redundant
// specializations, repeated left-hand sides and both one- and
// two-word universes.
func TestMinimizeMatchesSettrie(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(10)
		if trial%4 == 0 {
			n = 60 + r.Intn(20)
		}
		s := fd.NewSet(n)
		for i := 0; i < 1+r.Intn(40); i++ {
			lhs, rhs := bitset.New(n), bitset.New(n)
			for k := r.Intn(4); k > 0; k-- {
				lhs.Add(r.Intn(n))
			}
			for k := 1 + r.Intn(3); k > 0; k-- {
				rhs.Add(r.Intn(n))
			}
			s.FDs = append(s.FDs, &fd.FD{Lhs: lhs, Rhs: rhs})
		}
		got, want := renderFDs(Minimize(s.Clone())), renderFDs(oracleMinimize(s.Clone()))
		if got != want {
			t.Fatalf("trial %d (n=%d): Minimize\n%s\nsettrie oracle\n%s", trial, n, got, want)
		}
	}
}
