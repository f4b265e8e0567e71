// Term-space reference evaluator.
//
// This file preserves the original map-based executor: every
// intermediate solution is a Binding (map[string]rdf.Term) and every
// scan materialises full rdf.Term triples through store.ForEachMatch.
// The ID-space engine in eval.go replaced it on the hot path; this copy
// is retained deliberately as
//
//   - the differential-testing oracle (TestIDEngineMatchesTermSpace
//     cross-checks the two engines on random graphs and query shapes), and
//   - the benchmark baseline (Benchmark*TermSpace in bench_test.go) that
//     keeps the ID engine's speedup measurable in every future PR.
//
// It must stay semantically identical to ExecuteCtx; it is not
// optimised. rowLess, the term-order definition of the default result
// order that rankRowLess replaced, is kept at the end of the file.

package sparql

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"repro/internal/rdf"
	"repro/internal/store"
)

// ExecuteTermSpace runs the query with the term-space reference
// evaluator. Results are identical to ExecuteCtx; only the execution
// strategy (and its cost) differs. Like the ID engine it pins one
// snapshot up front, so even the oracle path can never mix
// generations mid-query.
func ExecuteTermSpace(st *store.Store, q *Query) (*Result, error) {
	if q == nil {
		return nil, fmt.Errorf("sparql: nil query")
	}
	ex := &tsExecutor{st: st.Snapshot(), q: q}
	return ex.run()
}

type tsExecutor struct {
	st *store.Snapshot
	q  *Query
}

func (ex *tsExecutor) run() (*Result, error) {
	q := ex.q
	solutions := ex.evalBGP(q.Patterns, q.Filters)

	if q.Form == FormAsk {
		return &Result{Form: FormAsk, Boolean: len(solutions) > 0}, nil
	}

	// COUNT aggregate: a single row with the count.
	if q.Count != nil {
		n := 0
		if q.Count.Var == "" {
			n = len(solutions)
		} else if q.Count.Distinct {
			seen := map[rdf.Term]bool{}
			for _, sol := range solutions {
				if t, ok := sol[q.Count.Var]; ok {
					seen[t] = true
				}
			}
			n = len(seen)
		} else {
			for _, sol := range solutions {
				if _, ok := sol[q.Count.Var]; ok {
					n++
				}
			}
		}
		row := Binding{q.Count.As: rdf.NewInteger(int64(n))}
		return newMaterializedResult(FormSelect, []string{q.Count.As}, []Binding{row}), nil
	}

	// Projection variable list.
	vars := q.Projection
	if q.Star {
		vars = q.Vars()
	}

	// ORDER BY.
	if len(q.OrderBy) > 0 {
		sort.SliceStable(solutions, func(i, j int) bool {
			for _, key := range q.OrderBy {
				vi, oki := refOperand(key.Expr, solutions[i])
				vj, okj := refOperand(key.Expr, solutions[j])
				if !oki || !okj {
					continue
				}
				c, ok := compareTerms(vi, vj)
				if !ok || c == 0 {
					continue
				}
				if key.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	} else {
		// Deterministic order even without ORDER BY: sort rows by the
		// projected terms.
		sort.SliceStable(solutions, func(i, j int) bool {
			return bindingLess(solutions[i], solutions[j], vars)
		})
	}

	// Project.
	projected := make([]Binding, 0, len(solutions))
	for _, s := range solutions {
		row := make(Binding, len(vars))
		for _, v := range vars {
			if t, ok := s[v]; ok {
				row[v] = t
			}
		}
		projected = append(projected, row)
	}

	// DISTINCT.
	if q.Distinct {
		seen := map[string]bool{}
		dedup := make([]Binding, 0, len(projected))
		for _, row := range projected {
			key := bindingKey(row, vars)
			if !seen[key] {
				seen[key] = true
				dedup = append(dedup, row)
			}
		}
		projected = dedup
	}

	// OFFSET / LIMIT.
	if q.Offset > 0 {
		if q.Offset >= len(projected) {
			projected = nil
		} else {
			projected = projected[q.Offset:]
		}
	}
	if q.Limit >= 0 && q.Limit < len(projected) {
		projected = projected[:q.Limit]
	}

	return newMaterializedResult(FormSelect, vars, projected), nil
}

func bindingLess(a, b Binding, vars []string) bool {
	for _, v := range vars {
		if c := a[v].Compare(b[v]); c != 0 {
			return c < 0
		}
	}
	return false
}

func bindingKey(b Binding, vars []string) string {
	var sb strings.Builder
	for _, v := range vars {
		if t, ok := b[v]; ok {
			sb.WriteString(t.String())
		}
		sb.WriteByte('\x00')
	}
	return sb.String()
}

// refOperand evaluates a FILTER operand or ORDER BY key over one
// solution; an unbound variable has no value.
func refOperand(e Expr, sol Binding) (rdf.Term, bool) {
	if v, ok := e.(*VarExpr); ok {
		t, bound := sol[v.Name]
		return t, bound
	}
	return e.(*TermExpr).Term, true
}

// refHolds evaluates a FILTER comparison over one solution: an unbound
// operand is an error, which rejects the solution.
func refHolds(f *Comparison, sol Binding) bool {
	l, lok := refOperand(f.Left, sol)
	r, rok := refOperand(f.Right, sol)
	return lok && rok && holds(f.Op, l, r)
}

// keep returns the solutions the filter accepts, in a fresh slice.
func keep(solutions []Binding, f *Comparison) []Binding {
	kept := make([]Binding, 0, len(solutions))
	for _, sol := range solutions {
		if refHolds(f, sol) {
			kept = append(kept, sol)
		}
	}
	return kept
}

// evalBGP evaluates the basic graph pattern with FILTERs pushed down as
// soon as their variables are bound.
func (ex *tsExecutor) evalBGP(patterns []rdf.Triple, filters []*Comparison) []Binding {
	if len(patterns) == 0 {
		// Empty BGP has the single empty solution if no filters reject it.
		solutions := []Binding{{}}
		for _, f := range filters {
			solutions = keep(solutions, f)
		}
		return solutions
	}

	// Track which filters have been applied.
	filterVars := make([]map[string]bool, len(filters))
	for i, f := range filters {
		filterVars[i] = map[string]bool{}
		for _, e := range []Expr{f.Left, f.Right} {
			if v, ok := e.(*VarExpr); ok {
				filterVars[i][v.Name] = true
			}
		}
	}

	remaining := make([]rdf.Triple, len(patterns))
	copy(remaining, patterns)

	solutions := []Binding{{}}
	boundVars := map[string]bool{}
	appliedFilter := make([]bool, len(filters))

	for len(remaining) > 0 {
		// Pick the most selective pattern given current bindings. The
		// estimate uses the first solution's bindings as a representative
		// (all solutions bind the same variable set).
		var rep Binding
		if len(solutions) > 0 {
			rep = solutions[0]
		} else {
			return nil
		}
		bestIdx, bestCard := -1, int(^uint(0)>>1)
		for i, pat := range remaining {
			card := tsEstimate(ex.st, tsSubstitute(pat, rep))
			// Prefer patterns sharing variables with bound set (joins)
			// over cartesian products: penalise disconnected patterns.
			if !tsSharesVar(pat, boundVars) && len(boundVars) > 0 {
				card = card * 1000
			}
			if card < bestCard {
				bestIdx, bestCard = i, card
			}
		}
		pat := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)

		var next []Binding
		for _, sol := range solutions {
			ground := tsSubstitute(pat, sol)
			ex.st.ForEachMatch(ground, func(t rdf.Triple) bool {
				nb, ok := tsExtend(sol, pat, t)
				if ok {
					next = append(next, nb)
				}
				return true
			})
		}
		solutions = next
		for _, v := range pat.Vars() {
			boundVars[v] = true
		}

		// Apply any filter whose variables are now all bound.
		for i, f := range filters {
			if appliedFilter[i] {
				continue
			}
			ready := true
			for v := range filterVars[i] {
				if !boundVars[v] {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			appliedFilter[i] = true
			solutions = keep(solutions, f)
		}
		if len(solutions) == 0 {
			return nil
		}
	}

	// Any filters not yet applied mention a variable no pattern binds:
	// SPARQL errors on unbound variables reject the solution.
	for i, f := range filters {
		if !appliedFilter[i] {
			solutions = keep(solutions, f)
		}
	}
	return solutions
}

func tsSharesVar(pat rdf.Triple, bound map[string]bool) bool {
	for _, v := range pat.Vars() {
		if bound[v] {
			return true
		}
	}
	return false
}

// tsSubstitute replaces bound variables in pat with their terms.
func tsSubstitute(pat rdf.Triple, b Binding) rdf.Triple {
	sub := func(t rdf.Term) rdf.Term {
		if t.IsVar() {
			if bound, ok := b[t.Value]; ok {
				return bound
			}
		}
		return t
	}
	return rdf.Triple{S: sub(pat.S), P: sub(pat.P), O: sub(pat.O)}
}

// tsExtend merges the match t into sol according to pat's variables. It
// reports false on conflicting repeated variables.
func tsExtend(sol Binding, pat rdf.Triple, t rdf.Triple) (Binding, bool) {
	nb := maps.Clone(sol)
	try := func(pt rdf.Term, val rdf.Term) bool {
		if !pt.IsVar() {
			return true
		}
		if prev, ok := nb[pt.Value]; ok {
			return prev == val
		}
		nb[pt.Value] = val
		return true
	}
	if !try(pat.S, t.S) || !try(pat.P, t.P) || !try(pat.O, t.O) {
		return nil, false
	}
	return nb, true
}

// rowLess orders two rows by the projected columns' terms — the
// reference definition of the deterministic default order. Production sorts run rankRowLess over the snapshot's
// term-rank permutation instead; the equivalence (identical order,
// zero term materialization) is pinned by TestRankRowLessMatchesRowLess
// in plan_test.go.
func (ex *executor) rowLess(a, b []store.ID, projCols []int) bool {
	for _, col := range projCols {
		if col < 0 {
			continue
		}
		ia, ib := a[col], b[col]
		if ia == ib {
			continue
		}
		if c := ex.term(ia).Compare(ex.term(ib)); c != 0 {
			return c < 0
		}
	}
	return false
}

// tsEstimate reads the snapshot's cardinality estimate for a term pattern,
// resolving its bound terms as the planner does; an unknown term
// matches nothing.
func tsEstimate(sn *store.Snapshot, pat rdf.Triple) int {
	var ids [3]store.ID
	for i, t := range [3]rdf.Term{pat.S, pat.P, pat.O} {
		if t.IsZero() || t.IsVar() {
			continue
		}
		id, ok := sn.Lookup(t)
		if !ok {
			return 0
		}
		ids[i] = id
	}
	return sn.EstimateCardinalityIDs(ids)
}
