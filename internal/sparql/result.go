package sparql

import (
	"repro/internal/rdf"
	"repro/internal/store"
)

// Result is the outcome of executing a query.
//
// SELECT results are columnar: Rows holds len(Vars) dictionary IDs per
// solution, flat and row-major, with store.ID(0) marking an unbound
// column. IDs resolve to terms through the dictionary view the executor
// pinned at run time, so reading results allocates nothing per row.
// Consumers read columns directly (VarIndex / TermAt / Column).
//
// Aggregate (COUNT) and term-space reference results carry synthesised
// literals that have no dictionary ID; they are represented with the
// materialised view only (Rows is nil) and every accessor falls back
// transparently.
type Result struct {
	// Vars is the projection (resolved for SELECT *).
	Vars []string
	// Rows is the columnar payload: one store.ID per projected variable
	// per solution, len(Vars) entries per row. 0 marks an unbound
	// column. nil for ASK results and for materialised-only results.
	Rows []store.ID
	// Boolean is the ASK result.
	Boolean bool
	// Form echoes the query form.
	Form Form

	nrows int        // number of solutions (authoritative; Vars may be empty)
	terms []rdf.Term // pinned dictionary view resolving Rows IDs

	sols []Binding // the materialised rows, when Rows is nil
}

// newColumnarResult builds a SELECT result over the executor's pinned
// dictionary view.
func newColumnarResult(vars []string, rows []store.ID, nrows int, terms []rdf.Term) *Result {
	return &Result{Form: FormSelect, Vars: vars, Rows: rows, nrows: nrows, terms: terms}
}

// newMaterializedResult builds a result directly from bindings (COUNT
// aggregates and the term-space reference evaluator).
func newMaterializedResult(form Form, vars []string, sols []Binding) *Result {
	return &Result{Form: form, Vars: vars, nrows: len(sols), sols: sols}
}

// Len returns the number of solutions (0 for ASK).
func (r *Result) Len() int { return r.nrows }

// VarIndex returns the column of a projected variable, or -1 when the
// variable is not projected.
func (r *Result) VarIndex(name string) int {
	for i, v := range r.Vars {
		if v == name {
			return i
		}
	}
	return -1
}

// TermAt returns the bound term at (row, col); ok is false when the
// position is out of range or the variable is unbound in that row.
func (r *Result) TermAt(row, col int) (rdf.Term, bool) {
	if col < 0 || col >= len(r.Vars) || row < 0 || row >= r.nrows {
		return rdf.Term{}, false
	}
	if r.Rows != nil {
		id := r.Rows[row*len(r.Vars)+col]
		if id == 0 {
			return rdf.Term{}, false
		}
		return r.terms[id-1], true
	}
	t, ok := r.sols[row][r.Vars[col]]
	return t, ok
}

// Column extracts the bound terms of one projected variable across all
// solutions, skipping rows where the variable is unbound. It reads the
// columnar layout directly: one pass over the rows, no map traffic.
func (r *Result) Column(name string) []rdf.Term {
	col := r.VarIndex(name)
	if col < 0 {
		return nil
	}
	var out []rdf.Term
	if r.Rows != nil {
		stride := len(r.Vars)
		for row := 0; row < r.nrows; row++ {
			if id := r.Rows[row*stride+col]; id != 0 {
				out = append(out, r.terms[id-1])
			}
		}
		return out
	}
	for row := 0; row < r.nrows; row++ {
		if t, ok := r.TermAt(row, col); ok {
			out = append(out, t)
		}
	}
	return out
}
