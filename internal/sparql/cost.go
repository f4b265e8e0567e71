// Compile-time cost estimation for deadline-aware shedding.
//
// PR 5 hoisted every triple pattern's exact base cardinality into the
// compiled query (cpat.baseCard, an O(1) read of the store's cached
// bucket totals). That number was introduced for join ordering, but it
// doubles as a cost proxy: the dominant execution cost of a §2.3
// candidate is scanning and joining its base patterns, which is linear
// in their cardinalities. EstimateRows exposes the summed proxy so the
// answer stage can compare a fan-out's estimated cost against the
// request's remaining deadline budget and fail fast (a typed
// *pipeline.BudgetError) instead of starting work the deadline will
// kill mid-flight.

package sparql

import "context"

// EstimateRows returns the compile-time cost proxy for executing q
// through the session: the sum of the exact base cardinalities of
// every triple pattern in the query — required BGP, every UNION
// branch, every OPTIONAL block. Patterns with a constant absent from
// the dictionary contribute 0 (they can never match and execution
// prunes them immediately).
//
// The estimate is a pure function of the session's pinned snapshot:
// compilation resolves constants with one dictionary lookup each and
// reads cardinalities from the store's cached totals, so calling this
// before executing costs microseconds and no index work.
func (s *Session) EstimateRows(ctx context.Context, q *Query) int {
	if q == nil {
		return 0
	}
	ex := compile(ctx, s, q)
	total := 0
	add := func(pats []cpat) {
		for _, cp := range pats {
			if !cp.unknown {
				total += cp.baseCard
			}
		}
	}
	add(ex.patterns)
	for _, block := range ex.unions {
		for _, branch := range block {
			add(branch)
		}
	}
	for _, opt := range ex.optionals {
		add(opt)
	}
	return total
}
