package sparql

import (
	"strconv"
	"strings"

	"repro/internal/rdf"
)

// Form distinguishes SELECT from ASK queries.
type Form uint8

// Query forms.
const (
	FormSelect Form = iota
	FormAsk
)

// CountSpec is a COUNT aggregate projection:
// SELECT (COUNT(DISTINCT ?v) AS ?alias).
type CountSpec struct {
	// Var is the counted variable; empty means COUNT(*).
	Var      string
	Distinct bool
	// As is the result variable name.
	As string
}

// Query is a parsed SPARQL query: one basic graph pattern with its
// FILTER comparisons, under SELECT or ASK.
type Query struct {
	Form     Form
	Distinct bool
	// Projection holds the projected variable names for SELECT. Empty
	// with Star=true means SELECT *.
	Projection []string
	Star       bool
	// Count, when non-nil, makes the SELECT an aggregate returning a
	// single row with the count bound to Count.As.
	Count *CountSpec
	// Patterns is the basic graph pattern: triple patterns in textual
	// order (the executor reorders them by selectivity).
	Patterns []rdf.Triple
	// Filters are the FILTER comparisons of the group.
	Filters []*Comparison
	// OrderBy lists the sort keys in priority order.
	OrderBy []OrderKey
	// Limit < 0 means no limit; Offset 0 means none.
	Limit  int
	Offset int
	// Prefixes holds the PREFIX declarations seen in the prologue.
	Prefixes map[string]string
}

// OrderKey is one ORDER BY criterion.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// Vars returns the distinct variable names of the basic graph pattern,
// in order of first appearance.
func (q *Query) Vars() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range q.Patterns {
		for _, v := range p.Vars() {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// String re-serialises the query as text Parse reads back as the same
// query, PREFIX declarations aside. §2.3 renders every candidate it
// builds, so the text is assembled in one buffer, on the stack for a
// query of ordinary length.
func (q *Query) String() string {
	var buf [256]byte
	b := buf[:0]
	switch q.Form {
	case FormAsk:
		b = append(b, "ASK WHERE {"...)
	default:
		b = append(b, "SELECT "...)
		if q.Distinct {
			b = append(b, "DISTINCT "...)
		}
		switch {
		case q.Count != nil:
			b = append(b, "(COUNT("...)
			if q.Count.Distinct {
				b = append(b, "DISTINCT "...)
			}
			if q.Count.Var == "" {
				b = append(b, '*')
			} else {
				b = append(append(b, '?'), q.Count.Var...)
			}
			b = append(append(append(b, ") AS ?"...), q.Count.As...), ')')
		case q.Star:
			b = append(b, '*')
		default:
			for i, v := range q.Projection {
				if i > 0 {
					b = append(b, ' ')
				}
				b = append(append(b, '?'), v...)
			}
		}
		b = append(b, " WHERE {"...)
	}
	for _, p := range q.Patterns {
		b = p.AppendTo(append(b, ' '))
	}
	for _, f := range q.Filters {
		b = append(append(append(b, " FILTER"...), f.String()...), " ."...)
	}
	b = append(b, " }"...)
	for i, k := range q.OrderBy {
		if i == 0 {
			b = append(b, " ORDER BY"...)
		}
		if k.Desc {
			b = append(b, " DESC("...)
		} else {
			b = append(b, " ASC("...)
		}
		b = append(append(b, k.Expr.String()...), ')')
	}
	if q.Limit >= 0 {
		b = strconv.AppendInt(append(b, " LIMIT "...), int64(q.Limit), 10)
	}
	if q.Offset > 0 {
		b = strconv.AppendInt(append(b, " OFFSET "...), int64(q.Offset), 10)
	}
	return string(b)
}

// Expr is a FILTER operand or an ORDER BY key: a variable (*VarExpr) or
// a constant term (*TermExpr).
type Expr interface {
	String() string
	// operand compiles the expression against a variable->column
	// layout (plan.go); ok is false for a variable no pattern binds.
	operand(varCols map[string]int) (o operand, ok bool)
}

// VarExpr references a variable.
type VarExpr struct{ Name string }

func (e *VarExpr) String() string { return "?" + e.Name }
func (e *VarExpr) operand(varCols map[string]int) (operand, bool) {
	col, ok := varCols[e.Name]
	return operand{col: col}, ok
}

// TermExpr is a constant RDF term.
type TermExpr struct{ Term rdf.Term }

func (e *TermExpr) String() string { return e.Term.String() }
func (e *TermExpr) operand(map[string]int) (operand, bool) {
	return operand{col: -1, term: e.Term}, true
}

// Comparison is a FILTER constraint: Left Op Right, with Op one of
// = != < > <= >=.
type Comparison struct {
	Op          string
	Left, Right Expr
}

func (c *Comparison) String() string {
	return "(" + c.Left.String() + " " + c.Op + " " + c.Right.String() + ")"
}

// Binding maps variable names to terms for one solution.
type Binding map[string]rdf.Term

// holds reports whether a op b holds. Numeric literals compare by
// value; otherwise = and != compare terms for identity and the order
// operators compare lexical forms or IRIs. An order comparison with a
// blank node is an error, which a FILTER treats as false.
func holds(op string, a, b rdf.Term) bool {
	switch op {
	case "=":
		return equalTerms(a, b)
	case "!=":
		return !equalTerms(a, b)
	}
	c, ok := compareTerms(a, b)
	if !ok {
		return false
	}
	switch op {
	case "<":
		return c < 0
	case ">":
		return c > 0
	case "<=":
		return c <= 0
	default:
		return c >= 0
	}
}

// number returns a numeric literal's value.
func number(t rdf.Term) (float64, bool) {
	if !t.IsNumeric() {
		return 0, false
	}
	return t.Float()
}

// equalTerms implements SPARQL '=' over terms, with numeric coercion.
func equalTerms(a, b rdf.Term) bool {
	if af, ok := number(a); ok {
		if bf, ok := number(b); ok {
			return af == bf
		}
	}
	return a == b
}

// compareTerms orders two terms (-1, 0, 1): numerically when both are
// numeric literals, else by lexical form or IRI. A blank node has no
// order (ok false).
func compareTerms(a, b rdf.Term) (int, bool) {
	if af, ok := number(a); ok {
		if bf, ok := number(b); ok {
			switch {
			case af < bf:
				return -1, true
			case af > bf:
				return 1, true
			}
			return 0, true
		}
	}
	if a.IsBlank() || b.IsBlank() {
		return 0, false
	}
	return strings.Compare(a.Value, b.Value), true
}
