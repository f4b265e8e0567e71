package store

import (
	"sort"

	"repro/internal/rdf"
)

// SuperClasses returns the transitive closure of rdfs:subClassOf starting
// at class c (excluding c itself), in deterministic order. Cycles are
// tolerated. The KB builder materialises the rdf:type closure with it, so
// the paper's expected-type filter (Table 1: "is this answer a
// Person/Place/...?") is one triple lookup at query time.
func (sn *Snapshot) SuperClasses(c rdf.Term) []rdf.Term {
	seen := map[rdf.Term]bool{c: true}
	var out []rdf.Term
	frontier := []rdf.Term{c}
	for len(frontier) > 0 {
		next := frontier[:0:0]
		for _, cur := range frontier {
			for _, super := range sn.Objects(cur, rdf.SubClassOf()) {
				if !seen[super] {
					seen[super] = true
					out = append(out, super)
					next = append(next, super)
				}
			}
		}
		frontier = next
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}
