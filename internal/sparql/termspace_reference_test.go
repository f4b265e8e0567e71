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

	// Filters whose variables are all introduced by the required BGP
	// run inside it (pushdown); the rest run after UNION/OPTIONAL.
	requiredVars := map[string]bool{}
	for _, p := range q.Patterns {
		for _, v := range p.Vars() {
			requiredVars[v] = true
		}
	}
	var early, late []Expr
	for _, f := range q.Filters {
		deferred := false
		for v := range exprVars(f) {
			if !requiredVars[v] {
				deferred = true
				break
			}
		}
		if deferred && (len(q.Unions) > 0 || len(q.Optionals) > 0) {
			late = append(late, f)
		} else {
			early = append(early, f)
		}
	}

	solutions := ex.evalBGP(q.Patterns, early)

	// UNION blocks: each block joins the current solutions with the
	// union of its branches.
	for _, block := range q.Unions {
		var next []Binding
		for _, branch := range block {
			for _, sol := range solutions {
				next = append(next, ex.joinPatterns(sol, branch)...)
			}
		}
		solutions = next
	}

	// OPTIONAL blocks: left join.
	for _, opt := range q.Optionals {
		var next []Binding
		for _, sol := range solutions {
			extended := ex.joinPatterns(sol, opt)
			if len(extended) == 0 {
				next = append(next, sol)
			} else {
				next = append(next, extended...)
			}
		}
		solutions = next
	}

	// Deferred filters. Filtering compacts into a fresh slice: the seed
	// version reused the backing array (kept := solutions[:0]) while
	// still reading from it, which is safe only because the write cursor
	// trails the read cursor; the explicit copy makes that independence
	// unconditional.
	for _, f := range late {
		kept := make([]Binding, 0, len(solutions))
		for _, sol := range solutions {
			v, ok := f.Eval(sol)
			bv, okb := ebv(v, ok)
			if okb && bv {
				kept = append(kept, sol)
			}
		}
		solutions = kept
	}

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
				vi, oki := key.Expr.Eval(solutions[i])
				vj, okj := key.Expr.Eval(solutions[j])
				if !oki && !okj {
					continue
				}
				if !oki {
					return !key.Desc // unbound sorts first ascending
				}
				if !okj {
					return key.Desc
				}
				c, ok := compareValues(vi, vj)
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
		ta, oka := a[v]
		tb, okb := b[v]
		if !oka && !okb {
			continue
		}
		if !oka {
			return true
		}
		if !okb {
			return false
		}
		if c := ta.Compare(tb); c != 0 {
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

// joinPatterns extends one solution with the matches of a pattern
// block (no filters), used for UNION branches and OPTIONAL blocks.
func (ex *tsExecutor) joinPatterns(sol Binding, patterns []rdf.Triple) []Binding {
	solutions := []Binding{sol}
	remaining := append([]rdf.Triple(nil), patterns...)
	for len(remaining) > 0 && len(solutions) > 0 {
		rep := solutions[0]
		bestIdx, bestCard := 0, int(^uint(0)>>1)
		for i, pat := range remaining {
			card := ex.st.EstimateCardinality(tsSubstitute(pat, rep))
			if card < bestCard {
				bestIdx, bestCard = i, card
			}
		}
		pat := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		var next []Binding
		for _, s := range solutions {
			ground := tsSubstitute(pat, s)
			ex.st.ForEachMatch(ground, func(t rdf.Triple) bool {
				if nb, ok := tsExtend(s, pat, t); ok {
					next = append(next, nb)
				}
				return true
			})
		}
		solutions = next
	}
	return solutions
}

// evalBGP evaluates the basic graph pattern with FILTERs pushed down as
// soon as their variables are bound.
func (ex *tsExecutor) evalBGP(patterns []rdf.Triple, filters []Expr) []Binding {
	if len(patterns) == 0 {
		// Empty BGP has the single empty solution if no filters reject it.
		b := Binding{}
		for _, f := range filters {
			v, ok := f.Eval(b)
			bv, okb := ebv(v, ok)
			if !okb || !bv {
				return nil
			}
		}
		return []Binding{b}
	}

	// Track which filters have been applied.
	filterVars := make([]map[string]bool, len(filters))
	for i, f := range filters {
		filterVars[i] = exprVars(f)
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
			card := ex.st.EstimateCardinality(tsSubstitute(pat, rep))
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
			kept := make([]Binding, 0, len(solutions))
			for _, sol := range solutions {
				v, ok := f.Eval(sol)
				bv, okb := ebv(v, ok)
				if okb && bv {
					kept = append(kept, sol)
				}
			}
			solutions = kept
		}
		if len(solutions) == 0 {
			return nil
		}
	}

	// Any filters not yet applied (mention unbound vars): SPARQL errors
	// on unbound variables reject the solution, except BOUND which
	// handles absence itself — Eval already implements that, so just
	// apply them now.
	for i, f := range filters {
		if appliedFilter[i] {
			continue
		}
		kept := make([]Binding, 0, len(solutions))
		for _, sol := range solutions {
			v, ok := f.Eval(sol)
			bv, okb := ebv(v, ok)
			if okb && bv {
				kept = append(kept, sol)
			}
		}
		solutions = kept
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
	nb := sol.Clone()
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

// rowLess orders two rows by the projected columns' terms (unbound
// first) — the reference definition of the deterministic default
// order. Production sorts run rankRowLess over the snapshot's
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
		if ia == 0 {
			return true
		}
		if ib == 0 {
			return false
		}
		if c := ex.term(ia).Compare(ex.term(ib)); c != 0 {
			return c < 0
		}
	}
	return false
}
