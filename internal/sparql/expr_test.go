package sparql

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/rdf"
)

// Expression-level unit tests (comparison semantics, coercions, the
// refusal of expression syntax outside the subset and String
// rendering) complementing the end-to-end FILTER tests.

// filterHolds parses FILTER src and evaluates it over one solution.
func filterHolds(t *testing.T, src string, b Binding) bool {
	t.Helper()
	q, err := Parse("SELECT ?x WHERE { ?x ?p ?o . FILTER" + src + " }")
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return refHolds(q.Filters[0], b)
}

// wantUnsupported asserts that Parse refuses src with a *SyntaxError
// that names construct as unsupported.
func wantUnsupported(t *testing.T, src, construct string) {
	t.Helper()
	_, err := Parse(src)
	var se *SyntaxError
	if !errors.As(err, &se) || !strings.Contains(se.Msg, construct) || !strings.Contains(se.Msg, "unsupported") {
		t.Errorf("Parse(%q) = %v, want a *SyntaxError naming %s as unsupported", src, err, construct)
	}
}

// TestEffectiveBooleanValues: a FILTER's value is its comparison's
// truth. A comparison the operators do not define is an error, and an
// error rejects the row under every operator: it is not false, whose
// negation would hold.
func TestEffectiveBooleanValues(t *testing.T) {
	blank, iri := rdf.NewBlank("b"), rdf.Res("X")
	cases := []struct {
		a    rdf.Term
		op   string
		b    rdf.Term
		want bool
	}{
		{rdf.NewInteger(2), ">", rdf.NewInteger(1), true},
		{rdf.NewInteger(2), "<=", rdf.NewInteger(1), false},
		{blank, "<", iri, false},
		{blank, ">=", iri, false},
		{blank, "=", blank, true},
		{blank, "!=", iri, true},
	}
	for _, c := range cases {
		if got := holds(c.op, c.a, c.b); got != c.want {
			t.Errorf("%v %s %v = %v, want %v", c.a, c.op, c.b, got, c.want)
		}
	}
}

// TestLogicalErrorSemantics: a comparison with an unbound operand is an
// error on either side and under every operator, != included, so the
// FILTER rejects the solution. The logical operators that could mask an
// error are refused (TestUnsupportedSPARQLRejected).
func TestLogicalErrorSemantics(t *testing.T) {
	b := Binding{"x": rdf.NewInteger(1)}
	for op := range relops {
		for _, src := range []string{"(?missing " + op + " ?x)", "(?x " + op + " ?missing)"} {
			if filterHolds(t, src, b) {
				t.Errorf("%s held with ?missing unbound", src)
			}
		}
	}
	if !filterHolds(t, `(?x = 1)`, b) {
		t.Error("?x = 1 should hold")
	}
}

// TestArithmeticEdgeCases: a sign belongs to a numeric constant, but an
// arithmetic operator anywhere in a FILTER is refused — between
// operands, under brackets and as a unary minus — and "?x -4", which
// SPARQL reads as a subtraction, is no comparison.
func TestArithmeticEdgeCases(t *testing.T) {
	b := Binding{"x": rdf.NewInteger(10)}
	if !filterHolds(t, `(?x > -4)`, b) || !filterHolds(t, `(?x = +10)`, b) {
		t.Error("signed constants should compare by value")
	}
	for _, c := range []struct{ src, construct string }{
		{`(?x / 4 = 2.5)`, "(/)"},
		{`(?x - 4 * 2 = 2)`, "(-)"},
		{`((?x - 4) * 2 = 12)`, "nested expression"},
		{`(-?x < -2)`, "(-)"},
	} {
		wantUnsupported(t, "SELECT ?x WHERE { ?x ?p ?o . FILTER"+c.src+" }", c.construct)
	}
	if _, err := Parse(`SELECT ?x WHERE { ?x ?p ?o . FILTER(?x -4 = 6) }`); err == nil {
		t.Error(`"?x -4 = 6" parsed; want an error`)
	}
}

func TestComparisonCoercions(t *testing.T) {
	b := Binding{
		"i": rdf.NewInteger(5),
		"d": rdf.NewDouble(5.0),
		"s": rdf.NewLiteral("apple"),
		"t": rdf.NewLiteral("banana"),
	}
	if !filterHolds(t, `(?i = ?d)`, b) {
		t.Error("integer/double equality should coerce")
	}
	if !filterHolds(t, `(?s < ?t)`, b) {
		t.Error("string comparison should be lexicographic")
	}
	if !filterHolds(t, `(?s != ?i)`, b) {
		t.Error("string vs number inequality should hold")
	}
}

// TestStringBuiltinsMore: the string builtins are refused by name.
func TestStringBuiltinsMore(t *testing.T) {
	for _, fn := range []string{"UCASE", "STRSTARTS", "STRENDS", "LANGMATCHES", "STRLEN"} {
		wantUnsupported(t, `SELECT ?x WHERE { ?x rdfs:label ?l . FILTER(`+fn+`(STR(?l)) = "x") }`, fn)
	}
}

// TestRegexInvalidPattern: REGEX is refused before its pattern is read.
func TestRegexInvalidPattern(t *testing.T) {
	wantUnsupported(t, `SELECT ?x WHERE { ?x ?p ?s . FILTER(REGEX(STR(?s), "[")) }`, "REGEX")
}

// TestRegexPatternFromVariable: REGEX is refused whether its pattern is
// a constant or a variable.
func TestRegexPatternFromVariable(t *testing.T) {
	wantUnsupported(t, `SELECT ?x WHERE { ?x ?p ?o . FILTER(REGEX(?o, ?p)) }`, "REGEX")
	wantUnsupported(t, `SELECT ?x WHERE { ?x ?p ?o . FILTER(REGEX(?o, "a", "i")) }`, "REGEX")
}

func TestExprStringRendering(t *testing.T) {
	q := mustParse(`SELECT ?x WHERE { ?x ?p ?o . FILTER(?o > 3) FILTER("a"@en != ?o) } ORDER BY DESC(?o) ?x`)
	for i, want := range []string{`(?o > "3"^^xsd:integer)`, `("a"@en != ?o)`} {
		if got := q.Filters[i].String(); got != want {
			t.Errorf("filter %d String() = %q, want %q", i, got, want)
		}
	}
	if got, want := q.OrderBy[0].Expr.String()+q.OrderBy[1].Expr.String(), "?o?x"; got != want {
		t.Errorf("order keys = %q, want %q", got, want)
	}
}
