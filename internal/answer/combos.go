// Candidate-combination enumeration for §2.3: the Cartesian product of
// the per-triple alternative sets, capped to the top-MaxQueries
// combinations *by ranking score* rather than by generation order (the
// pre-fix behaviour silently dropped high-score combinations whenever
// the raw product exceeded the cap).

package answer

import (
	"cmp"
	"container/heap"
	"slices"

	"repro/internal/propmap"
	"repro/internal/rdf"
)

// alternative is one executable choice for a single extracted triple —
// a candidate property in one orientation, or the rdf:type pattern of a
// class triple — plus its §2.3.1 score factor.
type alternative struct {
	pred   int32 // index into the triple's Predicates; -1: the class pattern
	orient orientation
	score  float64
}

// orientation places a property's two slots: forward puts the triple's
// subject slot in subject position, reverse its object slot.
type orientation bool

const (
	forward orientation = false
	reverse orientation = true
)

// pattern is the SPARQL triple pattern alt stands for in mt.
func (alt alternative) pattern(mt *propmap.MappedTriple) rdf.Triple {
	if alt.pred < 0 {
		return rdf.Triple{S: rdf.NewVar(mt.SubjectVar), P: rdf.Type(), O: mt.Class}
	}
	s, o := slotTerm(mt.SubjectVar, mt.Subject), slotTerm(mt.ObjectVar, mt.Object)
	if alt.orient == reverse {
		s, o = o, s
	}
	return rdf.Triple{S: s, P: mt.Predicates[alt.pred].Property.Term, O: o}
}

// topCombos returns up to k combinations (one alternative per triple),
// flat: combination c is combos[c*len(perTriple):(c+1)*len(perTriple)];
// n counts them. truncated reports whether the full product exceeded k.
// When the product fits within k every combination is returned, the
// last triple's alternative varying fastest; otherwise the k best by
// score product are enumerated best-first, so no high-score combination
// can be displaced by a low-score one. Each perTriple list is (stably)
// sorted by descending score in place as a side effect.
func topCombos(perTriple [][]alternative, k int) (combos []alternative, n int, truncated bool) {
	for _, alts := range perTriple {
		slices.SortStableFunc(alts, func(a, b alternative) int { return cmp.Compare(b.score, a.score) })
	}

	dims := len(perTriple)
	n = 1
	for _, alts := range perTriple {
		n *= len(alts)
		if n > k {
			truncated = true
			break
		}
	}

	if !truncated {
		// Odometer over the index vector, last dimension fastest.
		combos = make([]alternative, n*dims)
		var idxBuf [8]int
		idx := append(idxBuf[:0], make([]int, dims)...)
		for c := 0; c < n; c++ {
			for d, i := range idx {
				combos[c*dims+d] = perTriple[d][i]
			}
			for d := dims - 1; d >= 0; d-- {
				if idx[d]++; idx[d] < len(perTriple[d]) {
					break
				}
				idx[d] = 0
			}
		}
		return combos, n, false
	}

	// Best-first enumeration over the score-sorted lists: pop the
	// highest-scoring index vector, emit it, push its successors (one
	// index advanced). Advancing any index moves down a descending
	// list, so the score product is non-increasing along every edge and
	// the k pops are exactly the k best combinations.
	comboScore := func(idx []int) float64 {
		s := 1.0
		for d, i := range idx {
			s *= perTriple[d][i].score
		}
		return s
	}
	h := &comboHeap{}
	start := make([]int, dims)
	heap.Push(h, comboState{idx: start, score: comboScore(start)})
	visited := map[string]bool{packIdx(start): true}

	combos = make([]alternative, 0, k*dims)
	for n = 0; n < k && h.Len() > 0; n++ {
		st := heap.Pop(h).(comboState)
		for d, i := range st.idx {
			combos = append(combos, perTriple[d][i])
		}
		for d := 0; d < dims; d++ {
			if st.idx[d]+1 >= len(perTriple[d]) {
				continue
			}
			nidx := make([]int, dims)
			copy(nidx, st.idx)
			nidx[d]++
			if key := packIdx(nidx); !visited[key] {
				visited[key] = true
				heap.Push(h, comboState{idx: nidx, score: comboScore(nidx)})
			}
		}
	}
	return combos, n, true
}

// packIdx encodes an index vector as a map key (two bytes per
// dimension; alternative lists are tiny).
func packIdx(idx []int) string {
	b := make([]byte, 2*len(idx))
	for d, i := range idx {
		b[2*d] = byte(i)
		b[2*d+1] = byte(i >> 8)
	}
	return string(b)
}

type comboState struct {
	idx   []int
	score float64
}

// comboHeap is a max-heap on score with a lexicographic index
// tie-break, keeping the enumeration (and therefore the truncation
// boundary among equal-score combinations) deterministic.
type comboHeap []comboState

func (h comboHeap) Len() int { return len(h) }
func (h comboHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score > h[j].score
	}
	for d := range h[i].idx {
		if h[i].idx[d] != h[j].idx[d] {
			return h[i].idx[d] < h[j].idx[d]
		}
	}
	return false
}
func (h comboHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *comboHeap) Push(x any)   { *h = append(*h, x.(comboState)) }
func (h *comboHeap) Pop() any {
	old := *h
	n := len(old)
	st := old[n-1]
	*h = old[:n-1]
	return st
}
