package sparql

import (
	"fmt"
	"regexp"
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

// Query is a parsed SPARQL query.
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
	// Optionals holds OPTIONAL { ... } blocks (left joins), applied
	// after the required BGP.
	Optionals [][]rdf.Triple
	// Unions holds { A } UNION { B } blocks; each block's branches are
	// alternative BGPs joined with the rest of the group.
	Unions [][][]rdf.Triple
	// Filters are the FILTER constraints of the group.
	Filters []Expr
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

// Vars returns the distinct variable names used in the group (required
// patterns, then unions, then optionals), in order of first appearance.
func (q *Query) Vars() []string {
	seen := map[string]bool{}
	var out []string
	add := func(ps []rdf.Triple) {
		for _, p := range ps {
			for _, v := range p.Vars() {
				if !seen[v] {
					seen[v] = true
					out = append(out, v)
				}
			}
		}
	}
	add(q.Patterns)
	for _, block := range q.Unions {
		for _, branch := range block {
			add(branch)
		}
	}
	for _, opt := range q.Optionals {
		add(opt)
	}
	return out
}

// String re-serialises the query (canonical-ish form, used in traces and
// the experiment reports). §2.3 renders every candidate it builds, so
// the text is assembled in one buffer, on the stack for a query of
// ordinary length.
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
	b = appendPatterns(b, q.Patterns)
	for _, block := range q.Unions {
		for bi, branch := range block {
			if bi > 0 {
				b = append(b, " UNION"...)
			}
			b = append(b, " {"...)
			b = appendPatterns(b, branch)
			b = append(b, " }"...)
		}
	}
	for _, opt := range q.Optionals {
		b = append(b, " OPTIONAL {"...)
		b = appendPatterns(b, opt)
		b = append(b, " }"...)
	}
	for _, f := range q.Filters {
		b = append(append(append(b, " FILTER("...), f.String()...), ") ."...)
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

// appendPatterns appends each triple pattern after a space.
func appendPatterns(b []byte, patterns []rdf.Triple) []byte {
	for _, p := range patterns {
		b = p.AppendTo(append(b, ' '))
	}
	return b
}

// Expr is a FILTER/ORDER BY expression node.
type Expr interface {
	// Eval computes the expression value under the bindings. The bool
	// result reports evaluation success; failures (unbound variables,
	// type errors) make enclosing FILTERs reject the solution, matching
	// SPARQL error semantics.
	Eval(b Binding) (Value, bool)
	String() string
	// vars appends the variable names mentioned by the expression.
	vars(set map[string]bool)
}

// Value is an expression value: either an RDF term or a derived plain
// value (bool/float/string) from an operator.
type Value struct {
	Term  rdf.Term
	IsRaw bool // true when the value is a raw Bool/Num/Str, not a term
	Bool  bool
	Num   float64
	Str   string
	kind  valueKind
}

type valueKind uint8

const (
	valTerm valueKind = iota
	valBool
	valNum
	valStr
)

func termValue(t rdf.Term) Value { return Value{Term: t, kind: valTerm} }
func boolValue(b bool) Value     { return Value{IsRaw: true, Bool: b, kind: valBool} }
func numValue(f float64) Value   { return Value{IsRaw: true, Num: f, kind: valNum} }
func strValue(s string) Value    { return Value{IsRaw: true, Str: s, kind: valStr} }

// EffectiveBool computes the SPARQL effective boolean value. The second
// result reports whether an EBV exists.
func (v Value) EffectiveBool() (bool, bool) {
	switch v.kind {
	case valBool:
		return v.Bool, true
	case valNum:
		return v.Num != 0, true
	case valStr:
		return v.Str != "", true
	case valTerm:
		t := v.Term
		if !t.IsLiteral() {
			return false, false
		}
		if t.Datatype == rdf.XSDBoolean {
			return t.Value == "true" || t.Value == "1", true
		}
		if f, ok := t.Float(); ok && (t.Datatype != "" || t.Lang == "") {
			if t.IsNumeric() {
				return f != 0, true
			}
		}
		if t.Datatype == "" || t.Datatype == rdf.XSDString {
			return t.Value != "", true
		}
		return false, false
	}
	return false, false
}

// asNumber coerces the value to a float64 if possible.
func (v Value) asNumber() (float64, bool) {
	switch v.kind {
	case valNum:
		return v.Num, true
	case valBool:
		if v.Bool {
			return 1, true
		}
		return 0, true
	case valTerm:
		if v.Term.IsNumeric() {
			return v.Term.Float()
		}
	}
	return 0, false
}

// asString coerces the value to its string form.
func (v Value) asString() (string, bool) {
	switch v.kind {
	case valStr:
		return v.Str, true
	case valTerm:
		if v.Term.IsLiteral() {
			return v.Term.Value, true
		}
		if v.Term.IsIRI() {
			return v.Term.Value, true
		}
	case valNum:
		return fmt.Sprintf("%g", v.Num), true
	case valBool:
		if v.Bool {
			return "true", true
		}
		return "false", true
	}
	return "", false
}

// Binding maps variable names to terms for one solution.
type Binding map[string]rdf.Term

// Clone returns a copy of the binding.
func (b Binding) Clone() Binding {
	c := make(Binding, len(b)+1)
	for k, v := range b {
		c[k] = v
	}
	return c
}

// --- Expression nodes ---

// VarExpr references a variable.
type VarExpr struct{ Name string }

// Eval implements Expr.
func (e *VarExpr) Eval(b Binding) (Value, bool) {
	t, ok := b[e.Name]
	if !ok {
		return Value{}, false
	}
	return termValue(t), true
}
func (e *VarExpr) String() string           { return "?" + e.Name }
func (e *VarExpr) vars(set map[string]bool) { set[e.Name] = true }

// TermExpr is a constant RDF term.
type TermExpr struct{ Term rdf.Term }

// Eval implements Expr.
func (e *TermExpr) Eval(Binding) (Value, bool) { return termValue(e.Term), true }
func (e *TermExpr) String() string             { return e.Term.String() }
func (e *TermExpr) vars(map[string]bool)       {}

// BinaryExpr applies an infix operator.
type BinaryExpr struct {
	Op          string // || && = != < > <= >= + - * /
	Left, Right Expr
}

// Eval implements Expr.
func (e *BinaryExpr) Eval(b Binding) (Value, bool) {
	switch e.Op {
	case "||":
		lv, lok := e.Left.Eval(b)
		rv, rok := e.Right.Eval(b)
		lb, lbok := ebv(lv, lok)
		rb, rbok := ebv(rv, rok)
		// SPARQL logical-or: true if either is true, error only if both fail.
		if lbok && lb || rbok && rb {
			return boolValue(true), true
		}
		if lbok && rbok {
			return boolValue(false), true
		}
		return Value{}, false
	case "&&":
		lv, lok := e.Left.Eval(b)
		rv, rok := e.Right.Eval(b)
		lb, lbok := ebv(lv, lok)
		rb, rbok := ebv(rv, rok)
		if lbok && !lb || rbok && !rb {
			return boolValue(false), true
		}
		if lbok && rbok {
			return boolValue(lb && rb), true
		}
		return Value{}, false
	}
	lv, ok := e.Left.Eval(b)
	if !ok {
		return Value{}, false
	}
	rv, ok := e.Right.Eval(b)
	if !ok {
		return Value{}, false
	}
	switch e.Op {
	case "=", "!=":
		eq, ok := valuesEqual(lv, rv)
		if !ok {
			return Value{}, false
		}
		if e.Op == "!=" {
			eq = !eq
		}
		return boolValue(eq), true
	case "<", ">", "<=", ">=":
		c, ok := compareValues(lv, rv)
		if !ok {
			return Value{}, false
		}
		switch e.Op {
		case "<":
			return boolValue(c < 0), true
		case ">":
			return boolValue(c > 0), true
		case "<=":
			return boolValue(c <= 0), true
		default:
			return boolValue(c >= 0), true
		}
	case "+", "-", "*", "/":
		lf, lok := lv.asNumber()
		rf, rok := rv.asNumber()
		if !lok || !rok {
			return Value{}, false
		}
		switch e.Op {
		case "+":
			return numValue(lf + rf), true
		case "-":
			return numValue(lf - rf), true
		case "*":
			return numValue(lf * rf), true
		default:
			if rf == 0 {
				return Value{}, false
			}
			return numValue(lf / rf), true
		}
	}
	return Value{}, false
}

func (e *BinaryExpr) String() string {
	return "(" + e.Left.String() + " " + e.Op + " " + e.Right.String() + ")"
}
func (e *BinaryExpr) vars(set map[string]bool) {
	e.Left.vars(set)
	e.Right.vars(set)
}

func ebv(v Value, ok bool) (bool, bool) {
	if !ok {
		return false, false
	}
	return v.EffectiveBool()
}

// UnaryExpr applies '!' or unary '-'.
type UnaryExpr struct {
	Op   string
	Expr Expr
}

// Eval implements Expr.
func (e *UnaryExpr) Eval(b Binding) (Value, bool) {
	v, ok := e.Expr.Eval(b)
	if !ok {
		return Value{}, false
	}
	switch e.Op {
	case "!":
		bv, ok := v.EffectiveBool()
		if !ok {
			return Value{}, false
		}
		return boolValue(!bv), true
	case "-":
		f, ok := v.asNumber()
		if !ok {
			return Value{}, false
		}
		return numValue(-f), true
	}
	return Value{}, false
}
func (e *UnaryExpr) String() string           { return e.Op + e.Expr.String() }
func (e *UnaryExpr) vars(set map[string]bool) { e.Expr.vars(set) }

// CallExpr is a builtin function call.
type CallExpr struct {
	Fn   string // upper-case builtin name
	Args []Expr

	// re is a REGEX's pattern, compiled by the parser when the pattern
	// and flags are constants; nil compiles them at each evaluation.
	re *regexp.Regexp
}

// Eval implements Expr.
func (e *CallExpr) Eval(b Binding) (Value, bool) {
	switch e.Fn {
	case "BOUND":
		v, ok := e.Args[0].(*VarExpr)
		if !ok {
			return Value{}, false
		}
		_, bound := b[v.Name]
		return boolValue(bound), true
	}
	vals := make([]Value, len(e.Args))
	for i, a := range e.Args {
		v, ok := a.Eval(b)
		if !ok {
			return Value{}, false
		}
		vals[i] = v
	}
	switch e.Fn {
	case "STR":
		s, ok := vals[0].asString()
		if !ok {
			return Value{}, false
		}
		return strValue(s), true
	case "LANG":
		if vals[0].kind != valTerm || !vals[0].Term.IsLiteral() {
			return Value{}, false
		}
		return strValue(vals[0].Term.Lang), true
	case "DATATYPE":
		if vals[0].kind != valTerm || !vals[0].Term.IsLiteral() {
			return Value{}, false
		}
		dt := vals[0].Term.Datatype
		if dt == "" {
			dt = rdf.XSDString
		}
		return termValue(rdf.NewIRI(dt)), true
	case "ISIRI", "ISURI":
		return boolValue(vals[0].kind == valTerm && vals[0].Term.IsIRI()), true
	case "ISLITERAL":
		return boolValue(vals[0].kind == valTerm && vals[0].Term.IsLiteral()), true
	case "ISBLANK":
		return boolValue(vals[0].kind == valTerm && vals[0].Term.IsBlank()), true
	case "ISNUMERIC":
		return boolValue(vals[0].kind == valTerm && vals[0].Term.IsNumeric()), true
	case "STRLEN":
		s, ok := vals[0].asString()
		if !ok {
			return Value{}, false
		}
		return numValue(float64(len([]rune(s)))), true
	case "LCASE":
		s, ok := vals[0].asString()
		if !ok {
			return Value{}, false
		}
		return strValue(strings.ToLower(s)), true
	case "UCASE":
		s, ok := vals[0].asString()
		if !ok {
			return Value{}, false
		}
		return strValue(strings.ToUpper(s)), true
	case "CONTAINS", "STRSTARTS", "STRENDS":
		a, aok := vals[0].asString()
		c, cok := vals[1].asString()
		if !aok || !cok {
			return Value{}, false
		}
		switch e.Fn {
		case "CONTAINS":
			return boolValue(strings.Contains(a, c)), true
		case "STRSTARTS":
			return boolValue(strings.HasPrefix(a, c)), true
		default:
			return boolValue(strings.HasSuffix(a, c)), true
		}
	case "REGEX":
		return evalRegex(e.re, vals)
	case "LANGMATCHES":
		tag, tok := vals[0].asString()
		rng, rok := vals[1].asString()
		if !tok || !rok {
			return Value{}, false
		}
		if rng == "*" {
			return boolValue(tag != ""), true
		}
		return boolValue(strings.EqualFold(tag, rng) ||
			strings.HasPrefix(strings.ToLower(tag), strings.ToLower(rng)+"-")), true
	case "SAMETERM":
		if vals[0].kind != valTerm || vals[1].kind != valTerm {
			return Value{}, false
		}
		return boolValue(vals[0].Term == vals[1].Term), true
	}
	return Value{}, false
}

func (e *CallExpr) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.Fn + "(" + strings.Join(parts, ", ") + ")"
}
func (e *CallExpr) vars(set map[string]bool) {
	for _, a := range e.Args {
		a.vars(set)
	}
}

// valuesEqual implements SPARQL '=' comparison with numeric coercion.
func valuesEqual(a, b Value) (bool, bool) {
	if af, aok := a.asNumber(); aok {
		if bf, bok := b.asNumber(); bok {
			return af == bf, true
		}
	}
	if a.kind == valTerm && b.kind == valTerm {
		return a.Term == b.Term, true
	}
	as, aok := a.asString()
	bs, bok := b.asString()
	if aok && bok {
		return as == bs, true
	}
	return false, false
}

// compareValues orders two values (-1, 0, 1) with numeric coercion, then
// string comparison.
func compareValues(a, b Value) (int, bool) {
	if af, aok := a.asNumber(); aok {
		if bf, bok := b.asNumber(); bok {
			switch {
			case af < bf:
				return -1, true
			case af > bf:
				return 1, true
			}
			return 0, true
		}
	}
	as, aok := a.asString()
	bs, bok := b.asString()
	if aok && bok {
		return strings.Compare(as, bs), true
	}
	return 0, false
}

// exprVars returns the variables mentioned in the expression.
func exprVars(e Expr) map[string]bool {
	set := map[string]bool{}
	e.vars(set)
	return set
}
