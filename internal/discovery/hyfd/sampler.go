package hyfd

import (
	"context"
	"slices"
	"sort"

	"normalize/internal/bitset"
	"normalize/internal/plistore"
	"normalize/internal/relation"
	"normalize/internal/wsteal"
)

// sampler produces non-FD evidence by comparing record pairs that are
// likely to agree on many attributes: records within the same PLI
// cluster. Clusters are ordered by overall record similarity (a global
// lexicographic sort of the records), and each sampling round compares
// every cluster member with its neighbour at the next larger window
// distance — the progressive widening of HyFD's sampling phase. Every
// compared pair yields an agree set; duplicates are suppressed, so
// emit sees each agree set once, at its first occurrence in cluster
// order, then pair order.
//
// Agree sets are computed into reused words and deduplicated on two
// levels: within a cluster on the worker that compares it, then across
// clusters in the ordered commit. Only a set that survives both becomes
// a bitset.
type sampler struct {
	enc        *relation.Encoded
	n          int
	words      int // words per agree set
	clusters   [][]int
	window     int // next window distance to run (1-based)
	maxCluster int
	seen       *wordSet   // every agree set emitted so far
	scratch    []*scratch // per worker slot
}

// scratch is one worker's reusable agree-set state.
type scratch struct {
	agree []uint64 // the pair being compared
	local *wordSet // the current cluster's distinct agree sets
}

func newSampler(enc *relation.Encoded, handles []*plistore.Handle) (*sampler, error) {
	n := len(handles)
	w := (n + 63) / 64
	s := &sampler{
		enc:    enc,
		n:      n,
		words:  w,
		window: 1,
		seen:   newWordSet(w),
	}
	// Rank rows by a lexicographic sort of their full code vectors so
	// that neighbours inside a cluster are similar on other attributes
	// too, which makes their agree sets large and informative.
	rows := make([]int, enc.NumRows)
	for i := range rows {
		rows[i] = i
	}
	sort.Slice(rows, func(i, j int) bool {
		ri, rj := rows[i], rows[j]
		for a := 0; a < s.n; a++ {
			ci, cj := enc.Columns[a][ri], enc.Columns[a][rj]
			if ci != cj {
				return ci < cj
			}
		}
		return false
	})
	rank := make([]int, enc.NumRows)
	for pos, r := range rows {
		rank[r] = pos
	}

	// The sampler copies (and re-sorts) every cluster it keeps, so each
	// partition is only pinned while its clusters are read.
	for _, h := range handles {
		p, err := h.Acquire()
		if err != nil {
			return nil, err
		}
		for _, cluster := range p.Clusters() {
			c := make([]int, len(cluster))
			copy(c, cluster)
			sort.Slice(c, func(i, j int) bool { return rank[c[i]] < rank[c[j]] })
			s.clusters = append(s.clusters, c)
			if len(c) > s.maxCluster {
				s.maxCluster = len(c)
			}
		}
		h.Release()
	}
	return s, nil
}

// hasMore reports whether widening the window can still produce new
// comparisons.
func (s *sampler) hasMore() bool { return s.window < s.maxCluster }

// run executes up to rounds window-widening passes, calling emit for
// every agree set not seen before. With a pool the per-cluster pair
// comparisons and the within-cluster dedup run on the workers; the
// dedup against seen and the emit happen in the pool's ordered commit,
// so the emitted sequence is byte-identical to the serial sweep
// (cluster order, then pair order) at every worker count — while emit
// (FD induction) overlaps the comparison of later clusters. The
// cross-cluster dedup must stay in the commit: a set claimed by
// whichever worker got there first would make the emit order depend on
// scheduling.
func (s *sampler) run(ctx context.Context, rounds int, pool *wsteal.Pool, emit func(*bitset.Set) error) error {
	if s.scratch == nil {
		workers := 1
		if pool != nil {
			workers = pool.Workers()
		}
		s.scratch = make([]*scratch, workers)
		for i := range s.scratch {
			s.scratch[i] = &scratch{agree: make([]uint64, s.words), local: newWordSet(s.words)}
		}
	}
	commit := func(sets []uint64) error {
		for k := 0; k < len(sets); k += s.words {
			if v := sets[k : k+s.words]; s.seen.add(v) {
				if err := emit(bitset.FromWords(s.n, v)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for r := 0; r < rounds && s.hasMore(); r++ {
		w := s.window
		s.window++
		if pool != nil && len(s.clusters) >= 2 {
			perCluster := make([][]uint64, len(s.clusters))
			err := pool.Run(ctx, "hyfd sampling", len(s.clusters), func(i, slot int) error {
				perCluster[i] = slices.Clone(s.compare(s.clusters[i], w, s.scratch[slot]))
				return nil
			}, func(i int) error {
				err := commit(perCluster[i])
				perCluster[i] = nil
				return err
			})
			if err != nil {
				return err
			}
			continue
		}
		for _, cluster := range s.clusters {
			if err := commit(s.compare(cluster, w, s.scratch[0])); err != nil {
				return err
			}
		}
	}
	return nil
}

// compare returns the distinct agree sets of the cluster's record pairs
// at window distance w, in first-occurrence order, packed s.words words
// per set. The result aliases sc and is valid until sc's next use.
func (s *sampler) compare(cluster []int, w int, sc *scratch) []uint64 {
	if w >= len(cluster) {
		return nil
	}
	sc.local.reset()
	for j := 0; j+w < len(cluster); j++ {
		s.agreeWords(cluster[j], cluster[j+w], sc.agree)
		sc.local.add(sc.agree)
	}
	return sc.local.keys
}

// agreeWords writes the attributes on which rows r1 and r2 agree into
// dst (s.words words, bitset layout).
func (s *sampler) agreeWords(r1, r2 int, dst []uint64) {
	clear(dst)
	for a, col := range s.enc.Columns[:s.n] {
		if col[r1] == col[r2] {
			dst[a>>6] |= 1 << uint(a&63)
		}
	}
}

// wordSet is an insertion-ordered hash set of fixed-width word vectors
// (agree sets in bitset layout). keys holds the members back to back,
// in insertion order; slots is an open-addressed index into it.
type wordSet struct {
	width int
	keys  []uint64
	slots []int32 // member number + 1; 0 marks an empty slot
}

func newWordSet(width int) *wordSet {
	return &wordSet{width: width, slots: make([]int32, 64)}
}

// len returns the number of members.
func (ws *wordSet) len() int { return len(ws.keys) / ws.width }

// reset empties the set, keeping its storage.
func (ws *wordSet) reset() {
	ws.keys = ws.keys[:0]
	clear(ws.slots)
}

// add inserts a copy of v and reports whether it was new.
func (ws *wordSet) add(v []uint64) bool {
	if 4*(ws.len()+1) > 3*len(ws.slots) {
		ws.grow()
	}
	mask := len(ws.slots) - 1
	for i := ws.hash(v) & mask; ; i = (i + 1) & mask {
		m := int(ws.slots[i])
		if m == 0 {
			ws.keys = append(ws.keys, v...)
			ws.slots[i] = int32(ws.len())
			return true
		}
		if slices.Equal(ws.keys[(m-1)*ws.width:m*ws.width], v) {
			return false
		}
	}
}

// grow doubles the index and re-slots every member.
func (ws *wordSet) grow() {
	ws.slots = make([]int32, 2*len(ws.slots))
	mask := len(ws.slots) - 1
	for m := 1; m <= ws.len(); m++ {
		i := ws.hash(ws.keys[(m-1)*ws.width:m*ws.width]) & mask
		for ws.slots[i] != 0 {
			i = (i + 1) & mask
		}
		ws.slots[i] = int32(m)
	}
}

func (ws *wordSet) hash(v []uint64) int {
	h := uint64(0x9e3779b97f4a7c15)
	for _, x := range v {
		h = (h ^ x) * 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	h *= 0x94d049bb133111eb
	return int((h ^ h>>32) >> 1)
}
